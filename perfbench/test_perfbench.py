"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import re
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import speed  # noqa: E402
import workloads  # noqa: E402
from tracing import Span, Tracer, self_times, union_length  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_union_length_merges_overlaps():
    assert union_length([(0, 2), (1, 3), (5, 6)]) == 4
    assert union_length([]) == 0


def test_self_time_is_span_minus_child_coverage():
    spans = [
        Span(0, "root", None, 1, 0.0, 10.0),
        Span(1, "a", 0, 1, 1.0, 3.0),
        Span(2, "b", 0, 1, 2.0, 5.0),  # overlaps a: covered 1..5
        Span(3, "c", 0, 1, 9.0, 12.0),  # clipped at the parent's end
        Span(4, "d", 1, 1, 1.5, 2.5),
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 4.0 - 1.0)
    assert selfs[1] == pytest.approx(2.0 - 1.0)
    assert selfs[3] == pytest.approx(3.0)


def test_tracer_records_parents_and_summary():
    t = Tracer()
    with t.span("outer"):
        with t.span("inner"):
            pass
    outer, inner = t.spans
    assert inner.parent == outer.sid and outer.parent is None
    summary = t.summary()
    assert summary["outer"]["self_s"] == pytest.approx(outer.duration - inner.duration)
    assert t.named("inner") == [inner]


def reference_table(workload, name):
    ref = json.loads((workloads.REFERENCE_DIR / f"{workload}.json").read_text())["0"]
    return workloads.read_table(ref[name])


def test_check_passes_on_reference_and_fails_on_perturbed_copy():
    exact = ("theta", "lambda_1", "lambda_2", "reps")
    mc = (("power_full", "stderr_full"), ("power_eigen", "stderr_eigen"))
    ref = reference_table("fig3-power", "fig3_power.csv")
    workloads.compare_table("fig3", ref, ref, exact, mc)

    moved = {k: list(v) for k, v in ref.items()}
    se = float(moved["stderr_eigen"][1])
    moved["power_eigen"][1] = repr(float(moved["power_eigen"][1]) + 4 * max(se, 1e-3))
    with pytest.raises(workloads.CheckFailed, match="power_eigen"):
        workloads.compare_table("fig3", moved, ref, exact, mc)

    relabelled = {k: list(v) for k, v in ref.items()}
    relabelled["reps"][0] = "999"
    with pytest.raises(workloads.CheckFailed, match="reps"):
        workloads.compare_table("fig3", relabelled, ref, exact, mc)


def test_names_are_well_formed_and_match_the_spec():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    assert [w["name"] for w in spec["workloads"]] == workloads.WORKLOAD_NAMES
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == workloads.PER_LAYER


@pytest.mark.parametrize("name", ["fig3-power", "haar-p3", "geometry-sweep"])
def test_seed_determines_inputs(name, tmp_path):
    cls = workloads.WORKLOADS[name]
    a = cls(0, tmp_path / "a").inputs()
    assert cls(0, tmp_path / "b").inputs() == a
    assert cls(1, tmp_path / "c").inputs() != a


def test_speed_probe_scales_by_the_sampled_kernel_time(monkeypatch):
    clock = iter([10.0, 14.0])
    monkeypatch.setattr(speed.time, "perf_counter", lambda: next(clock))
    probe = speed.SpeedProbe()
    mark = probe.mark()
    probe.times += [2.0 * speed.NOMINAL_S] * 3  # the host ran at half speed
    probe.total += 1.0  # seconds spent in the handler inside the interval
    scaled, raw, factor = probe.scaled(mark)
    assert raw == pytest.approx(3.0)
    assert factor == pytest.approx(2.0)
    assert scaled == pytest.approx(1.5)


def test_speed_probe_samples_on_its_timer():
    probe = speed.SpeedProbe(period=0.01)
    probe.start()
    try:
        mark = probe.mark()
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            sum(range(1000))
        scaled, raw, factor = probe.scaled(mark, min_samples=0)
    finally:
        probe.stop()
    assert len(probe.times) >= 5
    assert 0.15 < raw < 0.2 and scaled == pytest.approx(raw / factor)
