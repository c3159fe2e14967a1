"""Capture the reference outputs of the Monte-Carlo workloads.

    python3 perfbench/capture_reference.py

Runs fig3-power and risk-grids once for every reference seed (0 ..
REFERENCE_SEEDS-1) and stores their CSV outputs verbatim in
perfbench/reference/<workload>.json.  Re-capture only when a change to the
library is meant to move these outputs (for example a new random stream);
the check then compares later runs with the new numbers.
"""

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def main() -> int:
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    work = HERE.parent / ".perfbench-out"
    work.mkdir(exist_ok=True)
    for cls in (workloads.Fig3Power, workloads.RiskGrids):
        captured = {}
        for seed in range(workloads.REFERENCE_SEEDS):
            with tempfile.TemporaryDirectory(dir=work) as tmp:
                wl = cls(seed, Path(tmp), reference=False)
                for label, op in wl.ops():
                    op()
                captured[str(workloads.mc_seed(seed))] = wl.outputs()
            print(f"{cls.name} seed {seed}", file=sys.stderr)
        path = workloads.REFERENCE_DIR / f"{cls.name}.json"
        path.write_text(json.dumps(captured, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
