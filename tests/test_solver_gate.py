"""Gate for changes to the solver's pivot path.

The case LPs have alternative optima, so a solver change that takes another
pivot path may return another point of the same optimal face: the dispatch
CSVs then change while the optimum does not. This gate pins what the optimum
defines on the 3-day ``run`` at weather seeds 7 and 8 (variability 0.8), for
cases A-D and the baseline:

- each objective agrees with the values recorded below and with HiGHS;
- the sizing agrees with the values recorded below;
- every dispatch CSV passes ``check_dispatch`` and re-evaluates, from its own
  columns, to the optimal objective, so it is an optimal point;
- the objectives nest: A <= B <= D and A <= C <= D;
- B and C start from A's optimal basis and D from C's, each with no phase 1
  and no row starting infeasible, so the checks above cover the
  warm-started path;
- ``pvsmooth validate`` passes every dispatch CSV of the run, and fails the
  baseline's series under the name of a case the fluctuation band binds.

On the one-day traces at seeds 0-9 (variability 0.8), each case's objective
agrees with HiGHS and the objectives nest.

The recorded values come from the dense-LU solver that preceded the sparse
factorization.
"""

import json

import numpy as np
import pytest
from highs_oracle import highs_objective

from pvsmooth.cli import _formulate, build_power_series, main, read_dispatch_csv
from pvsmooth.config import load_run_config
from pvsmooth.formulation import DispatchSolution
from pvsmooth.lp import objective_value, solve
from pvsmooth.validation import check_dispatch

REL = 1e-9
CASES = ("A", "B", "C", "D", "baseline")

#: seed -> case -> (net_benefit, p_batt_max, e_batt_max, p_diesel_max)
RECORDED = {
    7: {
        "A": (82231210.99385436, 2591.6714060139484, 7252.455699580033, 0.0),
        "B": (82288979.42959419, 2550.776704553873, 7337.955469891022, 0.0),
        "C": (82416268.43498048, 2285.150352492242, 6967.662973610713, 613.0421070434095),
        "D": (82837712.79132953, 2067.11054848484, 7274.739366526679, 492.20033002321765),
        "baseline": (92351448.91119319, 0.0, 0.0, 0.0),
    },
    8: {
        "A": (101140445.52637205, 2292.752350260009, 7187.365168596319, 0.0),
        "B": (101178361.96366742, 2216.975931788904, 7476.06923430687, 0.0),
        "C": (101304345.68848595, 2083.4375702436637, 6770.843820261121, 418.62956003269716),
        "D": (101422743.31941411, 1954.744120874971, 7213.7374645473055, 351.46895290712035),
        "baseline": (110453003.12392116, 0.0, 0.0, 0.0),
    },
}

SIZING = ("p_batt_max", "e_batt_max", "p_diesel_max")


def close(value, reference):
    return value == pytest.approx(reference, rel=REL, abs=REL)


@pytest.fixture(scope="module", params=sorted(RECORDED), ids=lambda s: f"seed{s}")
def gated_run(request, tmp_path_factory):
    """The run's exit code, summary and dispatch CSVs, with each case's LP
    and the constraint settings its dispatch is checked against."""
    seed = request.param
    work = tmp_path_factory.mktemp(f"gate_seed{seed}")
    config_path = work / "config.json"
    config_path.write_text(json.dumps(
        {"weather": {"synthetic": {"days": 3, "seed": seed, "variability": 0.8}}}
    ))
    out = work / "out"
    code = main(["run", str(config_path), "--output-dir", str(out)])
    config = load_run_config(config_path)
    pv = build_power_series(config)
    forms = {label: _formulate(label, config, pv, config.battery) for label in CASES}
    return {
        "seed": seed,
        "code": code,
        "config_path": config_path,
        "out": out,
        "summary": json.loads((out / "summary.json").read_text()),
        "solver": json.loads((out / "solver.json").read_text()),
        "csv": {label: read_dispatch_csv(out / f"case_{label}_dispatch.csv") for label in CASES},
        "forms": forms,
        "config": config,
        "pv": pv,
    }


def test_run_is_clean(gated_run):
    assert gated_run["code"] == 0
    for label in CASES:
        case = gated_run["summary"]["cases"][label]
        assert case["status"] == "optimal", label
        assert case["validation"]["passed"] is True, label


def test_objectives_match_recorded_values_and_highs(gated_run):
    recorded = RECORDED[gated_run["seed"]]
    for label in CASES:
        net = gated_run["summary"]["cases"][label]["net_benefit"]
        assert close(net, recorded[label][0]), label
        form, _, _ = gated_run["forms"][label]
        assert close(net, highs_objective(form.problem)), label


def test_sizing_matches_recorded_values(gated_run):
    recorded = RECORDED[gated_run["seed"]]
    for label in CASES:
        case = gated_run["summary"]["cases"][label]
        for k, name in enumerate(SIZING, start=1):
            assert close(case[name], recorded[label][k]), (label, name)


def test_every_dispatch_csv_passes_check_dispatch(gated_run):
    for label in CASES:
        data = gated_run["csv"][label]
        case = gated_run["summary"]["cases"][label]
        _, cfg, diesel = gated_run["forms"][label]
        sol = DispatchSolution(
            **data,
            **{name: case[name] for name in SIZING},
            net_benefit=case["net_benefit"],
            diesel_energy=case["diesel_energy"],
        )
        report = check_dispatch(sol, gated_run["pv"], cfg, gated_run["config"].battery, diesel)
        assert report["passed"], (label, report["residuals"])


def test_every_dispatch_csv_is_an_optimal_point(gated_run):
    # sizing is not in the CSV; at an optimum each rating is the smallest
    # that covers its series, because every rating has a positive cost
    for label in CASES:
        data = gated_run["csv"][label]
        form, _, _ = gated_run["forms"][label]
        x = np.zeros(form.problem.n_vars)
        for name in ("p_grid", "p_batt", "e_batt", "p_curt", "p_diesel"):
            if name in form.columns:
                x[form.columns[name]] = data[name]
        x[form.columns["p_batt_max"]] = np.max(np.abs(data["p_batt"]))
        x[form.columns["e_batt_max"]] = np.max(data["e_batt"])
        if "p_diesel_max" in form.columns:
            x[form.columns["p_diesel_max"]] = np.max(data["p_diesel"])
        net = gated_run["summary"]["cases"][label]["net_benefit"]
        assert close(objective_value(form.problem, x), net), label


def test_validate_passes_every_dispatch_csv(gated_run, capsys):
    for label in CASES:
        csv_path = gated_run["out"] / f"case_{label}_dispatch.csv"
        assert main(["validate", str(gated_run["config_path"]), str(csv_path)]) == 0, label
        assert json.loads(capsys.readouterr().out)["passed"] is True, label


def test_validate_holds_case_a_to_the_band_the_baseline_drops(gated_run, tmp_path, capsys):
    # the baseline's series break the fluctuation band, so under case A's
    # file name they fail on the ramp residual alone
    baseline = gated_run["out"] / "case_baseline_dispatch.csv"
    renamed = tmp_path / "case_A_dispatch.csv"
    renamed.write_text(baseline.read_text())
    assert main(["validate", str(gated_run["config_path"]), str(renamed)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is False
    failed = {name for name, v in report["residuals"].items() if v > report["tolerance"]}
    assert failed == {"ramp"}


def assert_nested(net, lump):
    """A <= B <= D and A <= C <= D; ``lump`` is the constant emission charge
    the diesel cases pay even with the diesel idle."""
    slack = REL * max(abs(v) for v in net.values())
    assert net["A"] <= net["B"] + slack
    assert net["A"] <= net["C"] + lump + slack
    assert net["B"] <= net["D"] + lump + slack
    assert net["C"] <= net["D"] + slack


def test_objectives_nest(gated_run):
    net = {label: gated_run["summary"]["cases"][label]["net_benefit"] for label in CASES}
    assert_nested(net, gated_run["config"].diesel.emission_charge_total)


def test_each_case_starts_from_the_case_it_extends(gated_run):
    cases = gated_run["solver"]["cases"]
    starts = {label: cases[label]["start"] for label in CASES}
    assert starts == {"A": "crash", "B": "A", "C": "A", "D": "C", "baseline": "crash"}
    for label in "BCD":
        assert cases[label]["phase1_iterations"] == 0, label
        assert cases[label]["infeasible_rows"] == 0, label


@pytest.mark.parametrize("seed", range(10))
def test_one_day_trace_matches_highs_and_nests(seed, tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(
        {"weather": {"synthetic": {"days": 1, "seed": seed, "variability": 0.8}}}
    ))
    config = load_run_config(config_path)
    pv = build_power_series(config)
    net = {}
    for label in CASES:
        form, _, _ = _formulate(label, config, pv, config.battery)
        solution = solve(form.problem)
        assert solution.status == "optimal", label
        assert close(solution.objective_value, highs_objective(form.problem)), label
        net[label] = solution.objective_value
    assert_nested(net, config.diesel.emission_charge_total)
