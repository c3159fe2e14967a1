"""Benchmark entry point for eigengeo.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/`` of that checkout.  Workloads: fig3-power, risk-grids, haar-p3,
geometry-sweep (see workloads.py and BASELINE.md).

Each run starts fresh worker processes, one at a time: SETUP_PROCESSES that
only set the workload up, then one that sets up and measures.  With
``--trace 0`` the last stdout line reports the end-to-end metrics:

* ``wall_s``: median seconds of one iteration of the workload's operations
  (at least three iterations);
* ``setup_s``: median set-up seconds over all the worker processes (import
  eigengeo, build inputs, ensembles and references, warm up);
* ``peak_rss_mb``: peak resident memory of the measuring process.

Both times are seconds at the reference host speed: each interval's raw
seconds are rescaled by the host speed sampled during it (speed.py), because
this host's CPU speed drifts by up to 2x between runs.  The raw seconds are
in the record.

With ``--trace 1`` it reports the per-layer metrics of a traced run.
Every run also writes a full record (environment, per-iteration times,
failures and, when traced, all spans) to .perfbench-out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_PROCESSES = 4
WORKER_TIMEOUT_S = 170
THREADS = 1  # EIGENGEO_THREADS: one worker thread, so the speed probe sees all the work
UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def source_identity(root: Path) -> dict:
    """Commit when the checkout is a git repository, and a digest of the
    library sources either way."""
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "eigengeo").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
        commit = proc.stdout.strip() if proc.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def worker_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["EIGENGEO_THREADS"] = str(min(THREADS, os.cpu_count() or 1))
    env["PYTHONHASHSEED"] = "0"
    # One BLAS thread: the workloads' parallelism is eigengeo's own pool.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(args, mode: str, work: Path, index: int, env: dict) -> dict:
    result = work / f"{mode}-{index}.json"
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--mode", mode,
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--out", str(work / f"out-{mode}-{index}"), "--result", str(result),
    ]
    proc = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} worker exited with {proc.returncode}")
    return json.loads(result.read_text())


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    root = HERE.parent
    if not (root / "src" / "eigengeo" / "__init__.py").is_file():
        print(f"error: no eigengeo sources under {root / 'src'}", file=sys.stderr)
        return 2
    known = ("fig3-power", "risk-grids", "haar-p3", "geometry-sweep")
    if args.workload not in known:
        print(f"error: unknown workload {args.workload!r} (use one of {', '.join(known)})", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 2

    work = root / ".perfbench-out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = worker_env(root)
    try:
        setups = [run_worker(args, "setup", work, i, env) for i in range(SETUP_PROCESSES)]
        run = run_worker(args, "run", work, 0, env)
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        metrics = run["layer"]
    else:
        values = {
            "wall_s": statistics.median(run["walls"]),
            "setup_s": statistics.median([s["setup_s"] for s in setups] + [run["setup_s"]]),
            "peak_rss_mb": run["peak_rss_mb"],
        }
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "source": source_identity(root),
        "environment": run["environment"],
        "setup_s_samples": [s["setup_s"] for s in setups] + [run["setup_s"]],
        "setup_raw_s_samples": [s["setup_raw_s"] for s in setups] + [run["setup_raw_s"]],
        **{k: v for k, v in run.items() if k not in ("environment", "setup_s", "setup_raw_s")},
    }
    (work / "record.json").write_text(json.dumps(record, indent=1, default=str))
    print(json.dumps({"environment": record["environment"], "source": record["source"],
                      "record": str(work.relative_to(root) / "record.json")}))
    for failure in run["failures"]:
        print(f"failed: {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
