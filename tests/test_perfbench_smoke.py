"""One iteration of every benchmark workload, through the benchmark's own
output checks (perfbench/workloads.py), at workload seed 0.

A library change that breaks a workload's check fails here, not only in the
benchmark's ``failed`` count.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import workloads  # noqa: E402


@pytest.mark.parametrize("name", workloads.WORKLOAD_NAMES)
def test_one_iteration_passes_the_workload_checks(name, tmp_path, monkeypatch):
    monkeypatch.setenv("EIGENGEO_THREADS", "1")  # as the benchmark runs it
    wl = workloads.WORKLOADS[name](0, tmp_path)
    for label, op in wl.ops():
        try:
            op()
        except Exception as exc:  # report which operation failed, as the benchmark does
            pytest.fail(f"{name} {label}: {type(exc).__name__}: {exc}")
