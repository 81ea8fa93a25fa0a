"""Tests of the benchmark harness itself: span arithmetic, tracing through
module attributes, and that a failed check counts as a failed op."""

import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import workloads  # noqa: E402
from perfbench.workloads import Op  # noqa: E402
from perfbench.speed import SpeedProbe  # noqa: E402
from perfbench.tracing import Span, Tracer, covered, self_times  # noqa: E402


def test_covered_merges_overlapping_children_and_clips_to_parent():
    assert covered([], 0.0, 10.0) == 0.0
    assert covered([(1.0, 3.0), (2.0, 5.0), (7.0, 8.0)], 0.0, 10.0) == pytest.approx(5.0)
    assert covered([(-2.0, 1.0), (9.0, 12.0)], 0.0, 10.0) == pytest.approx(2.0)


def test_self_time_is_duration_minus_direct_children():
    spans = [
        Span(0, "fit", None, 0.0, 10.0),
        Span(1, "anchors", 0, 1.0, 4.0),
        Span(2, "bridge", 0, 5.0, 9.0),
        Span(3, "draws", 2, 5.5, 8.5),
    ]
    selfs = self_times(spans)
    assert selfs == pytest.approx({0: 3.0, 1: 3.0, 2: 1.0, 3: 3.0})
    # children plus self time add up to the parent's wall time
    assert selfs[0] + spans[1].duration + spans[2].duration == pytest.approx(spans[0].duration)


def test_tracer_nests_calls_made_through_module_globals_and_restores():
    module = types.ModuleType("fake")
    exec(
        "def inner(x):\n    return x + 1\n"
        "def outer(x):\n    return inner(x) * inner(x)\n",
        module.__dict__,
    )
    original = module.outer
    tracer = Tracer()
    tracer.wrap(module, "outer", "outer")
    tracer.wrap(module, "inner", "inner", note=lambda result, args, kwargs: {"value": result})
    try:
        assert module.outer(2) == 9
    finally:
        tracer.restore()
    assert module.outer is original
    outer, first, second = tracer.spans
    assert (outer.name, outer.parent) == ("outer", None)
    assert (first.parent, second.parent) == (outer.id, outer.id)
    assert first.info == {"value": 3}
    assert outer.start <= first.start <= first.end <= second.start <= second.end <= outer.end


@pytest.fixture
def small_mple(tmp_path):
    workload = workloads.MpleWorkload(3, tmp_path)
    workload.B, workload.groups = workloads.random_bipartite(3, n1=30, n2=15, density=0.2)
    workloads.write_inputs(workload.B, workload.groups, workload.network, workload.attrs1)
    workload.setup()
    return workload


def run_pass(workload):
    return [Op(name, 0.0, result=call()) for name, call in workload.pass_ops()]


def test_mple_fits_agree_with_the_independent_reference(small_mple):
    ops = run_pass(small_mple)
    small_mple.verify(ops)
    assert len(ops) == 22
    assert [op.failure for op in ops] == [None] * 22


def test_a_wrong_reference_counts_every_op_as_failed(small_mple):
    ops = run_pass(small_mple)[:3]
    small_mple.verify(ops, reference_coef=lambda which, value: small_mple.reference_coef(which, value) + 1e-5)
    assert all(op.failure and "off the reference" in op.failure for op in ops)


def test_without_the_program_sources_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "chain-2x2", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_speed_probe_excludes_its_bursts_from_op_time():
    window = []

    def spin():
        window.append(time.perf_counter())
        while time.perf_counter() < window[0] + 0.3:
            pass
        window.append(time.perf_counter())
        return "done"

    with SpeedProbe(interval=0.02) as probe:
        result, seconds, scaled = probe.timed(spin)
    start, end = window
    inside = [b - a for a, b in probe.bursts if start <= a and b <= end]
    assert result == "done"
    assert len(inside) >= 3
    assert seconds == pytest.approx(end - start - sum(inside), abs=0.002)
    assert scaled > 0.0
