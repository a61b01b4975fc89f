"""Tests of the benchmark's own code: statistics, spans, wrapping, checks."""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import metrics
import run
import spans
import worker
import workloads as wl
from dyncoh import channels as ch
from dyncoh import measures as ms
from dyncoh.errors import SolverFailure


# ---------------------------------------------------------------------------
# Percentile rule and failed calls
# ---------------------------------------------------------------------------

def test_tail_needs_ten_calls_beyond_and_sits_above_the_median():
    assert metrics.tail([1.0] * 20) is None
    value, percentile, count = metrics.tail([float(i) for i in range(21)])
    assert (value, count) == (10.0, 21)
    assert percentile == pytest.approx(100.0 * 11 / 21)
    value, percentile, count = metrics.tail([float(i) for i in reversed(range(100))])
    assert (value, percentile, count) == (89.0, 90.0, 100)


def test_failed_calls_count_as_inf_and_not_as_evaluations():
    s = metrics.summarize([0.1, math.inf, 0.3], evals_per_call=204, elapsed=2.0)
    assert s["attempted"] == 3 and s["failed"] == 1
    assert s["evals_per_s"] == pytest.approx(2 * 204 / 2.0)
    assert s["call_p50_s"] == 0.3
    assert s["ok_ratio"] == pytest.approx(2 / 3)
    assert metrics.summarize([0.1, math.inf, math.inf], 1, 1.0)["call_p50_s"] == math.inf
    tail = metrics.tail([0.1] * 11 + [math.inf] * 10)
    assert tail[0] == 0.1


def _raise_solver_failure():
    raise SolverFailure("numerical_failure", "stalled")


def test_attempt_counts_solver_failure_and_rejects_wrong_output():
    failing = wl.Call("fails", _raise_solver_failure, lambda out: None)
    assert wl.attempt(failing) == math.inf
    wrong = wl.Call("wrong", lambda: 0.5, lambda out: wl.check_exact(out, 0.6))
    with pytest.raises(wl.WrongOutput, match="wrong"):
        wl.attempt(wrong)
    right = wl.Call("right", lambda: 0.6, lambda out: wl.check_exact(out, 0.6 + 1e-9))
    assert math.isfinite(wl.attempt(right))


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------

class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_is_duration_minus_child_spans():
    clock = FakeClock()
    tracer = spans.Tracer(clock)
    with tracer.span("outer"):
        clock.now = 2.0
        with tracer.span("child"):
            clock.now = 3.0
            with tracer.span("grandchild"):
                clock.now = 4.0
            clock.now = 5.0
        clock.now = 6.0
        with tracer.span("child"):
            clock.now = 7.0
        clock.now = 10.0
    assert tracer.self_s["outer"] == pytest.approx(10.0 - 3.0 - 1.0)
    assert tracer.self_s["child"] == pytest.approx((3.0 - 1.0) + 1.0)
    assert tracer.self_s["grandchild"] == pytest.approx(1.0)
    assert tracer.calls == {"outer": 1, "child": 2, "grandchild": 1}


def _package_bindings():
    return {
        (key, attr): value
        for key, module in list(sys.modules.items())
        if key == "dyncoh" or key.startswith("dyncoh.")
        for attr, value in vars(module).items()
        if callable(value)
    }


def test_wrappers_count_where_callers_look_up_and_are_restored():
    from dyncoh import kernels, sdp

    before = _package_bindings()
    schur = kernels.SparseConstraints.schur
    tracer = spans.Tracer()
    cfg = ms.GameConfig(0.5, np.array([2.0 * np.pi / 3.0, 0.0]))
    with pytest.raises(RuntimeError, match="inside"):
        with spans.installed(tracer):
            assert sdp.solve_real_sdp is not before[("dyncoh.ipm", "solve_real_sdp")]
            report = sdp.preprocessed_improvement(ch.hadamard(), cfg)
            raise RuntimeError("inside the traced block")
    assert report.value == pytest.approx(np.sqrt(3.0) / 2.0, abs=1e-6)
    assert tracer.calls["sdp.preprocessed_improvement"] == 1
    assert tracer.calls["ipm.solve_real_sdp"] == tracer.calls["sdp.solve_sdp"] >= 1
    assert tracer.calls["kernels.schur"] > 0 and tracer.counts["ipm.iterations"] > 0
    after = _package_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert kernels.SparseConstraints.schur is schur


def test_missing_entry_point_is_reported_by_name_and_nothing_is_wrapped():
    before = _package_bindings()
    table = dict(spans.ENTRY_POINTS, **{
        "kernels.removed": ("dyncoh.kernels", "removed_kernel"),
        "gone.module": ("dyncoh.gone", "anything"),
    })
    with pytest.raises(spans.MissingEntryPoints) as info:
        with spans.installed(spans.Tracer(), table):
            pass
    assert info.value.names == ["kernels.removed", "gone.module"]
    assert "kernels.removed" in str(info.value)
    after = _package_bindings()
    assert all(after[k] is before[k] for k in before)


def test_layer_ratios_read_zero_without_their_base():
    tracer = spans.Tracer()
    tracer.calls["kernels.pure_state_ascent"] = 9
    out = spans.layer_metrics(tracer, evals=3)
    assert out["kernels.pure_state_ascent.calls"] == 3.0
    assert out["sdp.programs_per_eval"] == out["ipm.iters_per_solve"] == 0.0


# ---------------------------------------------------------------------------
# Workloads and the benchmark definition
# ---------------------------------------------------------------------------

def test_checks_reject_values_off_reference_or_above_ceiling():
    assert wl.check_exact(0.5 + 2e-6, 0.5)
    assert wl.check_exact(0.5 + 5e-7, 0.5) is None
    assert wl.check_lower_bound(0.3, 0.3 + 2e-6, 1.0)
    assert wl.check_lower_bound(0.9, 0.3, 0.8)
    assert wl.check_lower_bound(0.5, 0.3, 0.8) is None
    lambdas, p1s = wl.sweep_grid()
    rows = [(lam, p1, 0.0) for lam in lambdas for p1 in p1s]
    assert "anchor" in wl.check_sweep(rows, [0.0] * len(rows))


def test_failing_hadamard_points_still_reject_values_outside_their_limits():
    reference = wl.load_reference()["create_qubit"]
    case = next(c for c in reference["cases"] if c["group"] == "hadamard" and c["lam"] == 0.3)
    (call,) = wl._create_calls(case, reference["values"][case["id"]])
    ceiling = wl.hadamard_ceiling(wl.game(case))
    assert ceiling == pytest.approx(np.sqrt(1.0 - 0.3 * 0.7) - 0.4)
    assert call.check(0.5 * ceiling) is None
    for wrong in (-0.1, 0.0 - 2e-6, ceiling + 2e-6, 1.0 - 0.4, float("nan")):
        assert call.check(wrong), wrong


def test_hadamard_ceiling_is_the_exact_detection_value():
    from dyncoh import sdp

    assert wl.hadamard_ceiling(wl.game({"lam": 0.5, "phi": wl.README_PHI})) == pytest.approx(wl.ANCHOR)
    cfg = wl.game({"lam": 0.3, "phi": wl.README_PHI})
    value = sdp.preprocessed_improvement(ch.hadamard(), cfg).value
    assert value == pytest.approx(wl.hadamard_ceiling(cfg), abs=wl.TOL)


def test_timed_window_runs_whole_passes():
    ran = []
    calls = [wl.Call(str(i), lambda i=i: ran.append(i), lambda out: None) for i in range(3)]
    durations, elapsed, passes = worker.timed_window(calls, seconds=0.0)
    assert (ran, len(durations), passes) == ([0, 1, 2], 3, 1) and elapsed > 0.0
    ran.clear()
    durations, _, passes = worker.timed_window(calls, seconds=0.05)
    assert passes >= 2 and ran == [0, 1, 2] * passes and len(durations) == 3 * passes


def test_plan_orders_the_whole_pool_by_seed():
    reference = wl.load_reference()
    for name, workload in wl.WORKLOADS.items():
        warm_a, calls_a = wl.plan(workload, 5, reference)
        warm_b, calls_b = wl.plan(workload, 5, reference)
        assert [c.label for c in calls_a] == [c.label for c in calls_b]
        assert warm_a.label == wl.plan(workload, 6, reference)[0].label
        pool = {case["id"] for case in reference[name]["cases"]}
        assert {c.label.split("/")[0] for c in calls_a} == pool
    detect = wl.WORKLOADS["detect_n16"]
    labels = [c.label for c in wl.plan(detect, 5, reference)[1]]
    assert labels != [c.label for c in wl.plan(detect, 6, reference)[1]]


def test_create_workload_keeps_the_failing_hadamard_points():
    reference = wl.load_reference()["create_qubit"]
    failing = {c["lam"] for c in reference["cases"]
               if c["group"] == "hadamard" and reference["values"][c["id"]].get("status")}
    assert failing == {0.3, 0.4, 0.6, 0.7}


def test_benchmark_json_names_what_the_runs_print():
    spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    layers = spans.layer_metrics(spans.Tracer(), 1)
    layers.update(trace_overhead_ratio=1.0, fail_ratio=0.0, **{"trace.evals": 1})
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: run.layer_unit(name) for name in layers
    }
