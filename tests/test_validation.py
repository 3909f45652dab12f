"""Tests for the independent dispatch checker and the brute-force grid oracle."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from grid_oracle import brute_force_optimum, oracle_gap_bound
from hypothesis import strategies as st

from pvsmooth.economics import BatterySpec, DieselSpec, EconomicParams, compute_factors
from pvsmooth.formulation import ConstraintConfig, DispatchSolution, build_case, extract_solution
from pvsmooth.lp import solve
from pvsmooth.pvmodel import PowerSeries
from pvsmooth.validation import check_dispatch, compare_cases

NAS = BatterySpec(
    name="nas",
    capital_power=166.0,
    capital_energy=28.55,
    om_power=1.66,
    om_energy=0.0,
    salvage_power=0.0,
    salvage_energy=0.0,
    lifetime_years=15.0,
    eff_power=1.0,
    eff_energy=1.0,
    soc_min_fraction=0.2,
)

ECON = EconomicParams(energy_price=0.45, discount_rate=0.0, horizon_years=18.0)

DIESEL = DieselSpec(
    capital=76.0,
    om=0.0,
    salvage=0.0,
    lifetime_hours=20000.0,
    lifetime_years_effective=4.5,
    fuel_per_kwh=0.25,
    fuel_price=0.8,
    annual_fuel_cap_liters=1e6,
    emission_charge_total=0.0,
    efficiency=1.0,
)

H = 1.0 / 6.0


def series(vals, active=None, h=H) -> PowerSeries:
    vals = np.asarray(vals, dtype=float)
    if active is None:
        active = np.ones(len(vals), dtype=bool)
    return PowerSeries(values=vals, active=np.asarray(active, bool), step_hours=h)


def config(**kw) -> ConstraintConfig:
    kw.setdefault("fluctuation_limit", 150.0)
    kw.setdefault("annualization", 1.0)
    return ConstraintConfig(**kw)


def manual(p_pv, p_grid, p_batt, e_batt, steps=None, p_curt=None,
           p_diesel=None, p_batt_max=500.0, e_batt_max=500.0, p_diesel_max=0.0):
    """Hand-built dispatch for feeding violations to the checker; the
    curtailment and diesel series default to zeros."""
    n = len(p_grid)
    if steps is None:
        steps = np.arange(n)
    if p_curt is None:
        p_curt = np.zeros(n)
    if p_diesel is None:
        p_diesel = np.zeros(n)
    return DispatchSolution(
        steps=np.asarray(steps),
        p_pv=np.asarray(p_pv, float),
        p_grid=np.asarray(p_grid, float),
        p_batt=np.asarray(p_batt, float),
        e_batt=np.asarray(e_batt, float),
        p_curt=np.asarray(p_curt, float),
        p_diesel=np.asarray(p_diesel, float),
        p_batt_max=p_batt_max,
        e_batt_max=e_batt_max,
        p_diesel_max=p_diesel_max,
        net_benefit=0.0,
        diesel_energy=float(H * np.sum(p_diesel)),
    )


def solved(case_id, pv, cfg, diesel=None):
    if case_id in ("C", "D") and diesel is None:
        diesel = DIESEL
    form = build_case(case_id, pv, NAS, ECON, cfg, diesel=diesel)
    return extract_solution(form, solve(form.problem))


class TestCheckDispatchCleanPass:
    def test_balanced_flat_dispatch_passes(self):
        pv = series([200.0, 200.0, 200.0])
        sol = manual(pv.values, [200, 200, 200], [0, 0, 0], [100, 100, 100])
        report = check_dispatch(sol, pv, config(), NAS)
        assert report["passed"]
        assert all(v == 0.0 for v in report["residuals"].values())

    def test_report_serializes(self):
        pv = series([200.0, 200.0])
        sol = manual(pv.values, [200, 200], [0, 0], [100, 100])
        doc = check_dispatch(sol, pv, config(), NAS)
        text = json.dumps(doc)
        assert json.loads(text)["passed"] is True


class TestCheckDispatchCatchesViolations:
    def test_balance_residual(self):
        pv = series([200.0, 200.0])
        sol = manual(pv.values, [200, 202], [0, 0], [100, 100])
        report = check_dispatch(sol, pv, config(), NAS)
        assert not report["passed"]
        assert report["residuals"]["balance"] == pytest.approx(2.0)
        assert report["worst_step"]["balance"] == 1

    def test_ramp_excess_is_the_overshoot(self):
        # a 200 kW jump against a 150 kW band leaves a 50 kW residual
        pv = series([200.0, 400.0])
        sol = manual(pv.values, [200, 400], [0, 0], [100, 100])
        report = check_dispatch(sol, pv, config(), NAS)
        assert report["residuals"]["ramp"] == pytest.approx(50.0)
        assert report["worst_step"]["ramp"] == 1

    def test_ramp_not_checked_across_trace_gaps(self):
        pv = series([200.0, 0.0, 800.0], active=[True, False, True])
        sol = manual([200.0, 800.0], [200, 800], [0, 0], [100, 100], steps=[0, 2])
        report = check_dispatch(sol, pv, config(), NAS)
        assert report["residuals"]["ramp"] == 0.0

    def test_soc_recursion_break(self):
        pv = series([200.0, 200.0])
        # discharging 60 kW for ten minutes is 10 kWh, not 4
        sol = manual(pv.values, [260, 200], [60, 0], [100, 96])
        report = check_dispatch(sol, pv, config(), NAS)
        assert report["residuals"]["soc_recursion"] == pytest.approx(6.0)
        assert report["worst_step"]["soc_recursion"] == 1

    def test_soc_band_violations(self):
        pv = series([200.0, 200.0])
        sol = manual(pv.values, [200, 200], [0, 0], [510, 50], e_batt_max=500.0)
        report = check_dispatch(sol, pv, config(), NAS)
        # 510 exceeds the rating by 10; 50 sits 50 below the 20% floor
        assert report["residuals"]["soc_bounds"] == pytest.approx(50.0)
        assert report["worst_step"]["soc_bounds"] == 1

    def test_power_rating_violation(self):
        pv = series([200.0, 200.0])
        sol = manual(pv.values, [320, 200], [120, 0], [100, 80], p_batt_max=100.0)
        report = check_dispatch(sol, pv, config(), NAS)
        assert report["residuals"]["power_bounds"] == pytest.approx(20.0)

    def test_curtailment_beyond_available_pv(self):
        pv = series([200.0, 200.0])
        sol = manual(pv.values, [-50, 200], [0, 0], [100, 100], p_curt=[250.0, 0.0])
        report = check_dispatch(sol, pv, config(), NAS)
        assert report["residuals"]["power_bounds"] == pytest.approx(50.0)

    def test_negative_injection_hits_grid_cap_family(self):
        pv = series([200.0, 200.0])
        sol = manual(pv.values, [-30, 430], [-230, 230], [100, 100])
        report = check_dispatch(sol, pv, config(), NAS)
        assert report["residuals"]["grid_cap"] == pytest.approx(30.0)

    def test_grid_cap_overage(self):
        pv = series([200.0, 200.0])
        sol = manual(pv.values, [200, 200], [0, 0], [100, 100])
        report = check_dispatch(sol, pv, config(grid_cap=150.0), NAS)
        assert report["residuals"]["grid_cap"] == pytest.approx(50.0)

    def test_fuel_budget_overrun_in_kwh(self):
        pv = series([200.0, 200.0])
        lean = replace(DIESEL, annual_fuel_cap_liters=0.25 * 8760.0 * 2.0)
        # cap works out to 2 kWh over this 20-minute trace; burning 60 kW
        # for two steps is 20 kWh
        sol = manual(pv.values, [260, 260], [0, 0], [100, 100],
                     p_diesel=[60.0, 60.0], p_diesel_max=60.0)
        report = check_dispatch(sol, pv, config(), NAS, lean)
        expect = 20.0 - (0.25 * 8760.0 * 2.0 / 0.25) * (pv.total_hours / 8760.0)
        assert report["residuals"]["fuel_cap"] == pytest.approx(expect)
        assert not report["passed"]

    # a series one step too long, and an absent resource's series left empty
    @pytest.mark.parametrize("name,values", [("p_batt", [0, 0, 0]), ("p_curt", [])])
    def test_length_mismatch_rejected(self, name, values):
        pv = series([200.0, 200.0])
        sol = manual(pv.values, [200, 200], [0, 0], [100, 100])
        sol = replace(sol, **{name: np.asarray(values, float)})
        with pytest.raises(ValueError, match=name):
            check_dispatch(sol, pv, config(), NAS)

    def test_solver_output_passes_end_to_end(self):
        pv = series([300.0, 600.0, 250.0, 500.0])
        for case_id in ("A", "B", "C", "D"):
            sol = solved(case_id, pv, config())
            report = check_dispatch(sol, pv, config(), NAS,
                                    DIESEL if case_id in ("C", "D") else None)
            assert report["passed"], (case_id, report["residuals"])


class TestOracleAgreesWithSolver:
    @pytest.mark.parametrize(
        "case_id,vals,window,d_lim",
        [
            ("A", [300.0, 600.0, 250.0], (-400.0, 400.0), None),
            ("B", [100.0, 400.0], (-200.0, 200.0), None),
            ("C", [100.0, 400.0], (-200.0, 200.0), 160.0),
            ("D", [60.0, 210.0], (-80.0, 80.0), 80.0),
        ],
    )
    def test_lp_within_one_grid_step_of_the_oracle(self, case_id, vals, window, d_lim):
        cfg = config(fluctuation_limit=60.0 if case_id == "D" else 150.0)
        pv = series(vals)
        sol = solved(case_id, pv, cfg)
        res = brute_force_optimum(
            pv, case_id, NAS, ECON, cfg,
            diesel=DIESEL if case_id in ("C", "D") else None,
            power_step_kw=10.0, p_batt_window=window, p_diesel_limit_kw=d_lim,
        )
        assert res is not None
        bound = oracle_gap_bound(
            pv, case_id, NAS, ECON, cfg,
            diesel=DIESEL if case_id in ("C", "D") else None, power_step_kw=10.0,
        )
        gap = sol.net_benefit - res.objective
        # the LP relaxes the grid, so it can only do better, up to float noise
        assert gap >= -1e-9 * (1.0 + abs(sol.net_benefit))
        assert gap <= bound
        # window wide enough that the optimum was not clipped
        assert np.all(np.abs(sol.p_batt) <= window[1] - 10.0)

    def test_refinement_never_worsens_the_oracle(self):
        pv = series([20.0, 70.0])
        cfg = config(fluctuation_limit=25.0)
        sol = solved("D", pv, cfg)
        prev_obj, prev_gap = -math.inf, math.inf
        for step in (10.0, 5.0, 2.5):
            res = brute_force_optimum(
                pv, "D", NAS, ECON, cfg, diesel=DIESEL, power_step_kw=step,
                p_batt_window=(-30.0, 30.0), p_diesel_limit_kw=20.0,
            )
            gap = sol.net_benefit - res.objective
            assert res.objective >= prev_obj - 1e-9
            assert gap <= prev_gap + 1e-9
            prev_obj, prev_gap = res.objective, gap
        # the 5 kW grid already contains this instance's optimum
        assert gap == pytest.approx(0.0, abs=1e-9)


class TestOracleInternals:
    def test_result_is_self_consistent(self):
        pv = series([100.0, 400.0])
        res = brute_force_optimum(pv, "C", NAS, ECON, config(), diesel=DIESEL,
                                  power_step_kw=10.0, p_batt_window=(-200.0, 200.0),
                                  p_diesel_limit_kw=160.0)
        assert res.p_batt_max == pytest.approx(np.max(np.abs(res.p_batt)))
        assert res.p_diesel_max == pytest.approx(np.max(res.p_diesel))
        np.testing.assert_allclose(
            res.p_grid, pv.values + res.p_batt + res.p_diesel, atol=1e-9
        )
        # third evaluation of the same objective, straight from the factors
        factors = compute_factors(NAS, ECON, DIESEL)
        value = 0.45 * H * factors.revenue_multiplier * np.sum(res.p_grid)
        value -= factors.beta * res.p_batt_max
        value -= factors.gamma * res.e_batt_max
        value -= factors.sigma * res.p_diesel_max
        value -= 0.25 * 0.8 * H * factors.revenue_multiplier * np.sum(res.p_diesel)
        assert res.objective == pytest.approx(value, rel=1e-12)

    def test_energy_rating_covers_the_excursion(self):
        pv = series([250.0, 100.0, 250.0])
        res = brute_force_optimum(pv, "A", NAS, ECON, config(),
                                  power_step_kw=25.0, p_batt_window=(-150.0, 150.0))
        d_cum = np.concatenate([[0.0], H * np.cumsum(res.p_batt[:-1])])
        swing = d_cum.max() - d_cum.min()
        assert res.e_batt_max == pytest.approx(swing / (1.0 - 0.2))

    def test_cyclic_rule_blocks_net_discharge(self):
        pv = series([250.0, 100.0, 250.0])
        res = brute_force_optimum(pv, "A", NAS, ECON, config(),
                                  power_step_kw=25.0, p_batt_window=(-150.0, 150.0))
        assert H * np.sum(res.p_batt[:-1]) <= 1e-9

    def test_fixed_fraction_start_changes_the_rating(self):
        pv = series([100.0, 400.0, 100.0])
        cfg_free = config()
        cfg_half = config(initial_soc_fraction=0.2)
        free = brute_force_optimum(pv, "A", NAS, ECON, cfg_free,
                                   power_step_kw=50.0, p_batt_window=(-150.0, 150.0))
        half = brute_force_optimum(pv, "A", NAS, ECON, cfg_half,
                                   power_step_kw=50.0, p_batt_window=(-150.0, 150.0))
        # pinning the start at the SOC floor forbids any early discharge,
        # so the constrained run cannot beat the free one
        assert half.objective <= free.objective + 1e-9


class TestOracleGuards:
    def test_too_many_steps(self):
        with pytest.raises(ValueError, match="4 steps"):
            brute_force_optimum(series([1, 2, 3, 4, 5]), "A", NAS, ECON, config())

    def test_combinatorial_guard(self):
        pv = series([5000.0, 5000.0, 5000.0])
        with pytest.raises(ValueError, match="enumeration guard"):
            brute_force_optimum(pv, "D", NAS, ECON, config(), diesel=DIESEL,
                                power_step_kw=1.0)

    def test_infeasible_comes_back_none(self):
        # injection cannot be zeroed because nothing can absorb the PV
        pv = series([200.0, 200.0])
        res = brute_force_optimum(pv, "A", NAS, ECON, config(grid_cap=50.0),
                                  power_step_kw=10.0, p_batt_window=(0.0, 0.0))
        assert res is None

    def test_bad_grid_step(self):
        with pytest.raises(ValueError, match="> 0"):
            brute_force_optimum(series([1.0, 2.0]), "A", NAS, ECON, config(),
                                power_step_kw=0.0)

    def test_diesel_case_needs_spec(self):
        with pytest.raises(ValueError, match="diesel"):
            brute_force_optimum(series([1.0, 2.0]), "C", NAS, ECON, config())


class TestGapBound:
    def test_linear_in_the_grid_step(self):
        pv = series([100.0, 400.0])
        b10 = oracle_gap_bound(pv, "D", NAS, ECON, config(), diesel=DIESEL,
                               power_step_kw=10.0)
        b5 = oracle_gap_bound(pv, "D", NAS, ECON, config(), diesel=DIESEL,
                              power_step_kw=5.0)
        assert b10 > 0.0
        assert b5 == pytest.approx(b10 / 2.0, rel=1e-12)


class TestCompareCases:
    def _solved_set(self):
        pv = series([300.0, 600.0, 250.0, 500.0])
        results = {cid: solved(cid, pv, config()) for cid in ("A", "B", "C", "D")}
        baseline = solved("A", pv, config(fluctuation_limit=math.inf))
        return results, baseline

    def test_decrements_ordered_like_the_nets(self):
        results, baseline = self._solved_set()
        doc = compare_cases(results, baseline)
        dec = {cid: case["decrement_vs_baseline"] for cid, case in doc["cases"].items()}
        assert doc["baseline_net_benefit"] >= results["D"].net_benefit - 1e-9
        assert dec["A"] >= dec["B"] - 1e-12
        assert dec["B"] >= dec["D"] - 1e-12
        assert dec["C"] >= dec["D"] - 1e-12
        for cid in results:
            expect = (baseline.net_benefit - results[cid].net_benefit) / abs(
                baseline.net_benefit
            )
            assert dec[cid] == pytest.approx(expect, rel=1e-12)

    def test_table_carries_sizing_columns(self):
        results, baseline = self._solved_set()
        doc = compare_cases(results, baseline)
        assert doc["cases"]["A"]["battery_power_kw"] == results["A"].p_batt_max
        assert doc["cases"]["A"]["battery_energy_kwh"] == results["A"].e_batt_max
        assert doc["cases"]["D"]["diesel_power_kw"] == results["D"].p_diesel_max
        assert doc["cases"]["D"]["net_benefit"] == results["D"].net_benefit
        # the largest curtailment of one optimal point is not a property of
        # the optimum, so the comparison leaves it out
        for case in doc["cases"].values():
            assert set(case) == {
                "net_benefit", "decrement_vs_baseline", "battery_power_kw",
                "battery_energy_kwh", "diesel_power_kw",
            }
        assert json.loads(json.dumps(doc)) == doc

    def test_nesting_violation_raises(self):
        results, baseline = self._solved_set()
        inflated = replace(results["A"], net_benefit=results["D"].net_benefit + 1000.0)
        with pytest.raises(ValueError, match="nesting violation"):
            compare_cases({**results, "A": inflated}, baseline)

    def test_emission_lump_is_added_back_before_nesting(self):
        # an idle diesel leaves D exactly the constant emission charge below B
        results, baseline = self._solved_set()
        lump = 6000.0
        b = results["B"]
        idle = {"B": b, "D": replace(results["D"], net_benefit=b.net_benefit - lump)}
        doc = compare_cases(idle, baseline, emission_charge=lump)
        assert doc["cases"]["D"]["net_benefit"] == b.net_benefit - lump
        with pytest.raises(ValueError, match="nesting violation"):
            compare_cases(idle, baseline)
        short = {"B": b, "D": replace(results["D"], net_benefit=b.net_benefit - lump - 1.0)}
        with pytest.raises(ValueError, match="nesting violation"):
            compare_cases(short, baseline, emission_charge=lump)


@st.composite
def spike_traces(draw):
    n = draw(st.integers(min_value=2, max_value=3))
    return [draw(st.integers(min_value=0, max_value=25)) * 20.0 for _ in range(n)]


class TestRandomTraceProperties:
    @settings(max_examples=15, deadline=None)
    @given(vals=spike_traces())
    def test_solver_beats_oracle_and_validates(self, vals):
        pv = series(vals)
        cfg = config()
        sol = solved("A", pv, cfg)
        assert check_dispatch(sol, pv, cfg, NAS)["passed"]
        top = float(np.max(pv.values)) + 160.0
        res = brute_force_optimum(pv, "A", NAS, ECON, cfg, power_step_kw=20.0,
                                  p_batt_window=(-top, top))
        assert res is not None
        assert sol.net_benefit >= res.objective - 1e-6 * (1.0 + abs(res.objective))
