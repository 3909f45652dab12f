"""Tests of the benchmark's own code: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import math
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import highs  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from pvsmooth.lp import build_problem  # noqa: E402

INF = math.inf
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


# --- LpProblem -> linprog ---------------------------------------------------

def _highs_objective(problem) -> float:
    result = highs.solve_highs(problem, repeats=1)
    assert result.status == "optimal"
    return result.objective


def test_maximize_with_le_and_eq_rows():
    # max x + y  s.t.  x + y <= 4,  x - y = 1,  x, y >= 0   ->  x=2.5, y=1.5
    p = build_problem(
        "maximize", [(0, INF), (0, INF)],
        [([(0, 1.0), (1, 1.0)], "<=", 4.0), ([(0, 1.0), (1, -1.0)], "=", 1.0)],
        [1.0, 1.0],
    )
    assert _highs_objective(p) == pytest.approx(4.0, abs=1e-12)
    arrays = highs.to_linprog(p)
    assert arrays.sign == -1.0
    np.testing.assert_array_equal(arrays.c, [-1.0, -1.0])
    np.testing.assert_array_equal(arrays.A_eq.toarray(), [[1.0, -1.0]])


def test_minimize_with_ge_row_and_upper_bound():
    # min x + 2y  s.t.  x + y >= 3,  0 <= x <= 1,  y >= 0   ->  x=1, y=2
    p = build_problem(
        "minimize", [(0, 1.0), (0, INF)], [([(0, 1.0), (1, 1.0)], ">=", 3.0)], [1.0, 2.0]
    )
    assert _highs_objective(p) == pytest.approx(5.0, abs=1e-12)
    arrays = highs.to_linprog(p)
    # >= rows are negated into <= rows
    np.testing.assert_array_equal(arrays.A_ub.toarray(), [[-1.0, -1.0]])
    np.testing.assert_array_equal(arrays.b_ub, [-3.0])
    assert arrays.A_eq is None
    assert arrays.bounds == [(0.0, 1.0), (0.0, None)]


def test_free_variable_reaches_negative_optimum():
    # min x  s.t.  x >= -5, x free   ->  -5
    p = build_problem("minimize", [(-INF, INF)], [([(0, 1.0)], ">=", -5.0)], [1.0])
    assert highs.to_linprog(p).bounds == [(None, None)]
    assert _highs_objective(p) == pytest.approx(-5.0, abs=1e-12)


def test_fixed_bound_and_objective_offset():
    # max x + 10  s.t.  x + y <= 5,  y fixed at 2   ->  x=3, objective 13
    p = build_problem(
        "maximize", [(0, INF), (2.0, 2.0)], [([(0, 1.0), (1, 1.0)], "<=", 5.0)],
        [1.0, 0.0], offset=10.0,
    )
    assert highs.to_linprog(p).bounds[1] == (2.0, 2.0)
    assert _highs_objective(p) == pytest.approx(13.0, abs=1e-12)


def test_agreement_is_relative_to_the_reference():
    assert highs.agrees(1e8 * (1 + 5e-10), 1e8)
    assert not highs.agrees(1e8 * (1 + 2e-9), 1e8)
    assert not highs.agrees(float("nan"), 1.0)
    assert highs.relative_gap(0.5, 0.0) == 0.5  # floored at 1 near zero


# --- span self times --------------------------------------------------------

def _span(name, start, end, parent=None):
    return spans.Span(name=name, start=start, end=end, parent=parent, run="t")


def test_self_time_subtracts_the_union_of_direct_children():
    tree = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 3.0, parent=0),
        _span("b", 2.0, 5.0, parent=0),  # overlaps a: the union counts once
        _span("c", 9.0, 12.0, parent=0),  # clipped to the parent's end
        _span("a.child", 1.5, 2.5, parent=1),  # covers part of a, not of root
    ]
    selfs = spans.self_times(tree)
    assert selfs == pytest.approx([10.0 - 4.0 - 1.0, 2.0 - 1.0, 3.0, 3.0, 1.0])


def test_self_time_of_a_leaf_is_its_duration():
    assert spans.self_times([_span("x", 2.0, 2.5)]) == pytest.approx([0.5])


def test_tracer_records_nesting_and_restores_the_originals():
    mod = types.SimpleNamespace()
    mod.inner = lambda v: v * 2
    mod.outer = lambda v: mod.inner(v) + 1
    original_inner, original_outer = mod.inner, mod.outer
    tracer = spans.Tracer(run="t")
    tracer.wrap(mod, "inner", "inner", describe=lambda a, k, r: {"result": r})
    tracer.wrap(mod, "outer", "outer", enter=lambda a, k: {"label": "L"})
    assert mod.outer(3) == 7
    tracer.restore()
    assert (mod.inner, mod.outer) == (original_inner, original_outer)
    records = tracer.as_records()
    assert [r["name"] for r in records] == ["outer", "inner"]
    assert records[1]["parent"] == 0 and records[0]["parent"] is None
    assert records[1]["attrs"] == {"result": 6} and records[0]["attrs"] == {"label": "L"}
    assert records[0]["self_s"] <= records[0]["end"] - records[0]["start"]


# --- metric names -----------------------------------------------------------

def _synthetic_records():
    recs = [
        ("cli.solve_case", None, {"label": "A"}),
        ("formulation.build", 0, {}),
        ("lp.problem.build", 1, {"rows": 4, "cols": 3, "nnz": 7}),
        ("lp.simplex.solve", 0, {"label": "A", "iterations": 10, "status": "optimal"}),
        ("lp.problem.residuals", 3, {}),
    ]
    return [
        {"name": n, "start": float(k), "end": float(k) + 1.0, "parent": p, "run": "t",
         "self_s": 0.5, "attrs": a}
        for k, (n, p, a) in enumerate(recs)
    ]


def test_layer_metrics_print_exactly_the_per_layer_names():
    metrics = layers.layer_metrics(
        _synthetic_records(), [{"label": "A", "seconds": 0.01}], 3.0, 2.9, 100
    )
    declared = [m["name"] for m in BENCHMARK["per_layer"]]
    assert list(metrics) == layers.per_layer_names()
    assert sorted(metrics) == sorted(declared)
    units = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert all(units[m] == layers.unit_of(m) for m in metrics)
    assert metrics["lp.simplex.us_per_iter"] == pytest.approx(1e6 * 0.5 / 10)
    assert metrics["lp.simplex.highs_ratio.A"] == pytest.approx(50.0)
    assert metrics["lp.simplex.solves"] == 1 and metrics["lp.simplex.solve_s.B"] == 0
    assert metrics["formulation.builds"] == 1 and metrics["lp.problem.nnz"] == 7
    assert metrics["cli.self_s"] == pytest.approx(3.0 - 2.0)
    assert metrics["trace.overhead_s"] == pytest.approx(0.1)


def test_unknown_lp_label_is_an_error():
    recs = _synthetic_records()
    recs[3]["attrs"]["label"] = "mystery"
    with pytest.raises(ValueError, match="unexpected labels"):
        layers.layer_metrics(recs, [], 1.0, 1.0, 0)


def test_end_to_end_metrics_print_exactly_the_declared_names():
    metrics = run.end_to_end_metrics(
        [{"wall_s": 2.0, "peak_rss_mb": 90.0}, {"wall_s": 1.0, "peak_rss_mb": 80.0}],
        [0.4, 0.5, 0.6],
    )
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert set(metrics) == set(declared)
    assert run.END_TO_END_UNITS == declared
    assert metrics == {"wall_s": 1.5, "setup_s": 0.5, "peak_rss_mb": 85.0}


def test_benchmark_json_lists_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


# --- workload inputs and checks ---------------------------------------------

def test_weather_csv_is_seeded_and_loads(tmp_path):
    from pvsmooth import load_weather

    text = workloads.weather_csv_text(2, seed=3, variability=0.8)
    assert text == workloads.weather_csv_text(2, seed=3, variability=0.8)
    assert text != workloads.weather_csv_text(2, seed=4, variability=0.8)
    path = tmp_path / "w.csv"
    path.write_text(text)
    weather = load_weather(path)
    assert len(weather) == 2 * 144
    assert weather.step_hours == pytest.approx(1.0 / 6.0)


def test_run_check_fails_a_case_that_is_not_optimal(tmp_path):
    inp = {"argv": ["run", "config.json"], "fingerprint": {"lps": {"A": {}, "baseline": {}}}}
    passed = {"status": "optimal", "validation": {"passed": True}}
    summary = {"cases": {"A": passed, "baseline": {"status": "infeasible"}}}
    (tmp_path / "summary.json").write_text(json.dumps(summary))
    ops = workloads.check_outcome(inp, tmp_path, {"exit_code": 1})
    assert [(o["op"], o["ok"]) for o in ops] == [
        ("command", False), ("A", True), ("baseline", False)
    ]


def test_digest_marks_reps_whose_artifacts_differ_on_the_same_input():
    reps = [
        {"input": i, "digest": d, "ops": [{"op": "command", "ok": True, "why": ""}]}
        for i, d in ((0, "x"), (1, "z"), (0, "x"), (0, "y"), (1, "z"))
    ]
    run._mark_digests(reps)
    assert [r["ops"][0]["ok"] for r in reps] == [True, True, True, False, True]


def test_trace_seeds_start_at_the_benchmark_seed():
    assert workloads.trace_seeds(workloads.WORKLOADS["run_default_3d"], 7) == [7]
    assert workloads.trace_seeds(workloads.WORKLOADS["battery_select_2d"], 8) == [
        8, 1008, 2008, 3008
    ]
