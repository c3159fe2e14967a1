"""One benchmark process: set up a workload, run it, write a result file.

Started by run.py in a fresh interpreter, so that set-up time and peak
memory belong to this process alone:

    python3 perfbench/worker.py --workload NAME --seed N --mode setup|run \
        --seconds S --trace 0|1 --out DIR --result FILE

``setup`` mode stops after set-up.  ``run`` mode repeats the workload's
operations until ``--seconds`` have passed, at least MIN_ITERATIONS times.
With ``--trace 1`` it alternates untraced and traced iterations, so tracing
overhead is their median difference, then runs the workload's probe pass
and computes the per-layer metrics from the recorded spans.

Set-up and every iteration are timed twice: in raw seconds and in seconds
scaled to the reference host speed by speed.SpeedProbe, which samples the
host's speed from the moment numpy is imported.
"""

import time

_STARTED = time.perf_counter()  # before numpy/eigengeo are imported

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path

from speed import SpeedProbe
from tracing import NullTracer, Tracer

# An untraced run times at least this many iterations, so that its median
# is not the mean of two: fig3-power's single command takes 10-13 s.
MIN_ITERATIONS = 3


def blas_identity(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError, AttributeError):
        return {"name": None, "version": None}


def environment(np, seed: int, mc: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_identity(np),
        "EIGENGEO_THREADS": os.environ.get("EIGENGEO_THREADS"),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "seed": seed,
        "mc_seed": mc,
    }


def run_iteration(wl, tracer, speed: SpeedProbe, failures: list) -> tuple[tuple, int]:
    """(scaled, raw, speed factor) of one iteration, and its operation count."""
    wl.tracer = tracer
    ops = wl.ops()
    mark = speed.mark()
    with tracer.span("iteration"):
        for label, op in ops:
            try:
                op()
            except Exception as exc:  # an operation failure is counted, not fatal
                failures.append(f"{label}: {type(exc).__name__}: {exc}")
    return speed.scaled(mark), len(ops)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=["setup", "run"], required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args()

    import numpy as np

    speed = SpeedProbe()
    speed.start()
    import workloads

    tracer = Tracer() if args.trace else NullTracer()
    wl = workloads.WORKLOADS[args.workload](args.seed, Path(args.out), tracer)
    setup_s, setup_raw_s, setup_factor = speed.scaled((_STARTED, 0, 0.0))
    result = {
        "setup_s": setup_s,
        "setup_raw_s": setup_raw_s,
        "setup_speed_factor": setup_factor,
        "environment": environment(np, args.seed, workloads.mc_seed(args.seed)),
        "inputs": wl.inputs(),
    }
    if args.mode == "run":
        result.update(measure(wl, tracer, speed, args.seconds, workloads))
    speed.stop()
    result["speed_samples"] = len(speed.times)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.result, "w") as fh:
        json.dump(result, fh, default=str)
    return 0


def measure(wl, tracer, speed: SpeedProbe, seconds: float, workloads) -> dict:
    null = NullTracer()
    failures: list[str] = []
    attempted = 0
    walls, traced_walls = [], []  # (scaled, raw, speed factor) per iteration
    deadline = time.perf_counter() + seconds
    if tracer.enabled:
        # The first iteration in a process runs slower (allocator warm-up),
        # so a traced run keeps it out of the overhead pairs.
        _, attempted = run_iteration(wl, null, speed, failures)
    while True:
        # Traced runs alternate traced and untraced iterations.
        traced = tracer.enabled and len(walls) == len(traced_walls)
        wall, ops = run_iteration(wl, tracer if traced else null, speed, failures)
        (traced_walls if traced else walls).append(wall)
        attempted += ops
        if tracer.enabled:
            done = len(walls) == len(traced_walls)
        else:
            done = len(walls) >= MIN_ITERATIONS
        if done and time.perf_counter() >= deadline:
            break
    out = {"walls": [w[0] for w in walls], "raw_walls": [w[1] for w in walls],
           "speed_factors": [w[2] for w in walls], "attempted": attempted}
    if tracer.enabled:
        wl.tracer = tracer
        with tracer.span("probe"):
            attempted += 1
            out["attempted"] = attempted
            try:
                wl.probe()
            except Exception as exc:  # counted like an operation failure
                failures.append(f"probe: {type(exc).__name__}: {exc}")
        values = wl.layer_metrics(len(traced_walls))
        values["trace_overhead_s"] = (
            statistics.median(w[0] for w in traced_walls) - statistics.median(out["walls"])
        )
        values["fail_frac"] = len(failures) / attempted
        layer = {
            name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit, _ in workloads.PER_LAYER
        }
        out.update(
            traced_walls=[w[0] for w in traced_walls],
            layer=layer,
            span_summary=tracer.summary(),
            spans=tracer.dump(),
        )
    out["failed"] = len(failures)
    out["failures"] = failures[:50]
    return out


if __name__ == "__main__":
    sys.exit(main())
