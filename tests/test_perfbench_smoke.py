"""One traced iteration of every benchmark workload, through the
benchmark's own output checks (perfbench/workloads.py), at workload seed 0,
then its probe pass and per-layer metrics, as ``run.py --trace 1`` runs
them.

A library change that breaks a workload's check, its probe or a per-layer
metric fails here, not only in the benchmark's ``failed`` count.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


@pytest.mark.parametrize("name", workloads.WORKLOAD_NAMES)
def test_one_iteration_passes_the_workload_checks(name, tmp_path, monkeypatch):
    monkeypatch.setenv("EIGENGEO_THREADS", "1")  # as the benchmark runs it
    wl = workloads.WORKLOADS[name](0, tmp_path, Tracer())
    for label, op in wl.ops():
        try:
            op()
        except Exception as exc:  # report which operation failed, as the benchmark does
            pytest.fail(f"{name} {label}: {type(exc).__name__}: {exc}")
    wl.probe()
    known = {metric for metric, _, _ in workloads.PER_LAYER}
    assert set(wl.layer_metrics(1)) <= known
