"""Package-level acceptance suite.

Every test pins an externally checkable guarantee with an explicit
tolerance: solver agreement with the exhaustive vertex oracle, file
round-trips, constraint residuals and feasible-set ordering across seeded
traces, closed-form cost factors, grid-search bounds on tiny spike
instances, qualitative sizing patterns on the default trace, price-scaling
linearity, byte-identical reruns of the command line, and a public API
whose every exported name resolves.
"""

import json
import math
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest
from grid_oracle import brute_force_optimum, oracle_gap_bound
from lp_enum_oracle import vertex_enumerate
from test_simplex import random_instance

import pvsmooth.lp
from pvsmooth.cli import build_power_series, solve_case
from pvsmooth.config import load_preset, load_run_config
from pvsmooth.economics import (
    BatterySpec,
    DieselSpec,
    EconomicParams,
    compute_factors,
    replacement_count,
)
from pvsmooth.formulation import ConstraintConfig, build_case, extract_solution
from pvsmooth.lp import read_mps, solve, write_mps
from pvsmooth.pvmodel import PowerSeries, PvPlantSpec, pv_power
from pvsmooth.validation import check_dispatch
from pvsmooth.weather import filter_low_irradiance, synth_weather

NAS = BatterySpec(**load_preset("table1_nas"))
DIESEL = DieselSpec(**load_preset("table3_diesel"))
ECON = EconomicParams()

SOLVER_ORACLE_REL = 1e-8
SOLVER_TIME_BUDGET_S = 1.0
ROUND_TRIP_REL = 1e-10
RESIDUAL_TOL = 1e-6
RAMP_LIMIT_KW = 150.0
NEST_REL = 1e-6
FACTOR_ORACLE_REL = 1e-10
SCALING_REL = 1e-9
CASE_D_TIME_BUDGET_S = 60.0


# ---------------------------------------------------------------- fixtures

@pytest.fixture(scope="module")
def ten_traces():
    """Four-case solves plus residual reports on ten seeded one-day traces.

    The diesel emission lump is zeroed here: it charges cases C/D a fixed
    amount regardless of dispatch, so on traces where the diesel sits idle
    it would lower those objectives below their diesel-free twins by
    exactly the lump and mask the feasible-set ordering asserted below.
    """
    diesel = replace(DIESEL, emission_charge_total=0.0)
    cfg = ConstraintConfig()
    plant = PvPlantSpec()
    out = {}
    for seed in range(10):
        weather = filter_low_irradiance(synth_weather(days=1, seed=seed, variability=0.8))
        pv = pv_power(weather, plant)
        per_case = {}
        for case_id in "ABCD":
            d = diesel if case_id in ("C", "D") else None
            form = build_case(case_id, pv, NAS, ECON, cfg, diesel=d)
            sol = extract_solution(form, solve(form.problem))
            per_case[case_id] = (sol, check_dispatch(sol, pv, cfg, NAS, diesel=d))
        out[seed] = (pv, per_case)
    return out


@pytest.fixture(scope="module")
def default_run(tmp_path_factory):
    """All cases plus the unconstrained baseline on the default three-day
    synthetic trace with the bundled cost presets, timed per case."""
    cfg_path = tmp_path_factory.mktemp("acceptance") / "config.json"
    cfg_path.write_text("{}")
    config = load_run_config(cfg_path)
    pv = build_power_series(config)
    assert len(pv.values) == 432  # three days at ten-minute resolution
    records, elapsed = {}, {}
    for label in ("A", "B", "C", "D", "baseline"):
        t0 = time.perf_counter()
        records[label] = solve_case(label, config, pv)
        elapsed[label] = time.perf_counter() - t0
    return records, elapsed


# ------------------------------------------------- 1. solver vs LP oracle

class TestSolverOracleEquivalence:
    def test_25_seeded_lps_match_vertex_enumeration(self):
        solve_time = 0.0
        for seed in range(25):
            problem = random_instance(np.random.default_rng(seed))
            t0 = time.perf_counter()
            sol = solve(problem)
            solve_time += time.perf_counter() - t0
            ref = vertex_enumerate(problem)
            assert ref is not None, f"seed {seed}: oracle found no vertex"
            assert sol.status == "optimal", f"seed {seed}: {sol.status}"
            err = abs(sol.objective_value - ref[0])
            assert err <= SOLVER_ORACLE_REL * (1.0 + abs(ref[0])), f"seed {seed}"
        assert solve_time < SOLVER_TIME_BUDGET_S


# ------------------------------------------------------ 2. MPS round trip

class TestMpsRoundTrip:
    def test_three_step_instance_survives_write_read_solve(self, tmp_path):
        pv = PowerSeries(
            values=np.array([300.0, 600.0, 250.0]),
            active=np.ones(3, dtype=bool),
            step_hours=1.0 / 6.0,
        )
        cfg = ConstraintConfig(annualization=1.0)
        form = build_case("A", pv, NAS, ECON, cfg)
        direct = solve(form.problem)
        assert direct.status == "optimal"
        path = tmp_path / "case_a.mps"
        write_mps(form.problem, path)
        again = solve(read_mps(path))
        assert again.status == "optimal"
        err = abs(again.objective_value - direct.objective_value)
        assert err <= ROUND_TRIP_REL * abs(direct.objective_value)


# ------------------------------------- 3. residuals on ten seeded traces

class TestConstraintSatisfaction:
    def test_every_dispatch_on_ten_traces_passes(self, ten_traces):
        for seed, (pv, per_case) in ten_traces.items():
            for case_id, (sol, report) in per_case.items():
                assert report["passed"], (
                    f"seed {seed} case {case_id}: {report['residuals']}"
                )
                assert max(report["residuals"].values()) <= RESIDUAL_TOL

    def test_ramp_limit_holds_between_consecutive_steps(self, ten_traces):
        # recomputed from the dispatch arrays, independent of check_dispatch
        for seed, (pv, per_case) in ten_traces.items():
            for case_id, (sol, _) in per_case.items():
                adjacent = np.diff(sol.steps) == 1
                jumps = np.abs(np.diff(sol.p_grid))[adjacent]
                worst = float(jumps.max()) if len(jumps) else 0.0
                assert worst <= RAMP_LIMIT_KW + 1e-6, f"seed {seed} case {case_id}"

    def test_case_d_solve_time_on_432_step_trace(self, default_run):
        _, elapsed = default_run
        assert elapsed["D"] < CASE_D_TIME_BUDGET_S


# --------------------------------------------------- 4. feasible-set order

class TestNestingChain:
    PAIRS = (("A", "B"), ("A", "C"), ("B", "D"), ("C", "D"))

    def test_objectives_nest_on_the_same_ten_traces(self, ten_traces):
        for seed, (_, per_case) in ten_traces.items():
            nets = {c: sol.net_benefit for c, (sol, _) in per_case.items()}
            for lo, hi in self.PAIRS:
                slack = NEST_REL * (1.0 + abs(nets[hi]))
                assert nets[lo] <= nets[hi] + slack, (
                    f"seed {seed}: {lo}={nets[lo]:.6f} > {hi}={nets[hi]:.6f}"
                )


# ------------------------------------------------ 5. economics closed form

def _present_worth(years, rate):
    return (1.0 + rate) ** (-years)


def _annuity(years, rate):
    if rate == 0.0:
        return float(years)
    growth = (1.0 + rate) ** years
    return (growth - 1.0) / (rate * growth)


def _chain_cost(capital, salvage, om, lifetime, horizon, rate):
    """Replacement-chain present worth per unit rating: purchases at each
    lifetime boundary, salvage one lifetime later, O&M over one lifetime."""
    count = math.ceil(horizon / lifetime - 1e-9)
    buys = sum(capital * _present_worth(k * lifetime, rate) for k in range(count))
    sells = sum(salvage * _present_worth((k + 1) * lifetime, rate) for k in range(count))
    return buys - sells + om * _annuity(lifetime, rate)


class TestEconomicsClosedForms:
    def test_zero_rate_limits_are_exact(self):
        econ0 = replace(ECON, discount_rate=0.0)
        factors = compute_factors(NAS, econ0, DIESEL)
        assert factors.beta == pytest.approx(2988.0, rel=1e-12)
        assert factors.gamma == pytest.approx(513.9, rel=1e-12)
        assert factors.sigma == pytest.approx(1368.0, rel=1e-12)
        assert replacement_count(ECON.horizon_years, NAS.lifetime_years) == 3
        assert replacement_count(ECON.horizon_years, DIESEL.lifetime_years_effective) == 4

    def test_discounted_factors_match_term_by_term_oracle(self):
        factors = compute_factors(NAS, ECON, DIESEL)
        rate, horizon = ECON.discount_rate, ECON.horizon_years
        beta = _chain_cost(
            NAS.capital_power, NAS.salvage_power, NAS.om_power,
            NAS.lifetime_years, horizon, rate,
        )
        gamma = _chain_cost(
            NAS.capital_energy, NAS.salvage_energy, NAS.om_energy,
            NAS.lifetime_years, horizon, rate,
        )
        sigma = _chain_cost(
            DIESEL.capital, DIESEL.salvage, DIESEL.om,
            DIESEL.lifetime_years_effective, horizon, rate,
        )
        assert factors.beta == pytest.approx(beta, rel=FACTOR_ORACLE_REL)
        assert factors.gamma == pytest.approx(gamma, rel=FACTOR_ORACLE_REL)
        assert factors.sigma == pytest.approx(sigma, rel=FACTOR_ORACLE_REL)


# --------------------------------------------- 6. brute-force grid oracle

# label, case, pv steps (kW), fluctuation limit, battery search window,
# diesel search limit, fuel cap override (litres/yr, None keeps the preset)
SPIKE_INSTANCES = [
    ("A-up3", "A", [300, 600, 250], 150.0, 400.0, None, None),
    ("A-up2", "A", [100, 400], 150.0, 200.0, None, None),
    ("A-dip", "A", [250, 100, 250], 150.0, 200.0, None, None),
    ("B-up", "B", [60, 240], 150.0, 100.0, None, None),
    ("B-down", "B", [200, 80], 60.0, 100.0, None, None),
    ("B-tight", "B", [40, 160], 40.0, 80.0, None, None),
    ("C-up", "C", [40, 200], 60.0, 120.0, 120.0, None),
    ("C-down", "C", [200, 60], 60.0, 100.0, 100.0, None),
    ("C-fuelcap", "C", [60, 220], 40.0, 140.0, 100.0, 131400.0),
    ("D-up", "D", [20, 70], 25.0, 30.0, 20.0, None),
    ("D-wide", "D", [20, 80], 30.0, 40.0, 30.0, None),
    ("D-down", "D", [80, 20], 20.0, 30.0, 25.0, 65700.0),
]

GRID_STEPS_KW = (10.0, 5.0, 2.5)


class TestBruteForceDispatchOracle:
    @pytest.mark.parametrize(
        "label,case_id,pv_vals,fluct,window,d_lim,cap_l",
        SPIKE_INSTANCES,
        ids=[row[0] for row in SPIKE_INSTANCES],
    )
    def test_gap_bounded_and_monotone_under_refinement(
        self, label, case_id, pv_vals, fluct, window, d_lim, cap_l
    ):
        pv = PowerSeries(
            values=np.asarray(pv_vals, dtype=float),
            active=np.ones(len(pv_vals), dtype=bool),
            step_hours=1.0 / 6.0,
        )
        cfg = ConstraintConfig(fluctuation_limit=fluct, annualization=1.0)
        diesel = None
        if case_id in ("C", "D"):
            diesel = DIESEL if cap_l is None else replace(
                DIESEL, annual_fuel_cap_liters=cap_l
            )
        form = build_case(case_id, pv, NAS, ECON, cfg, diesel=diesel)
        sol = extract_solution(form, solve(form.problem))
        lp = sol.net_benefit
        jitter = 1e-9 * (1.0 + abs(lp))

        # the LP optimum must sit strictly inside the oracle search window,
        # otherwise the comparison would be clipped
        p_batt_worst = float(np.max(np.abs(sol.p_batt))) if len(sol.p_batt) else 0.0
        assert p_batt_worst <= window - GRID_STEPS_KW[0] - 1e-9
        if d_lim is not None and len(sol.p_diesel):
            assert float(np.max(sol.p_diesel)) <= d_lim - GRID_STEPS_KW[0] - 1e-9

        gaps = []
        for step_kw in GRID_STEPS_KW:
            oracle = brute_force_optimum(
                pv, case_id, NAS, ECON, cfg, diesel,
                power_step_kw=step_kw,
                p_batt_window=(-window, window),
                p_diesel_limit_kw=d_lim,
            )
            assert oracle is not None, f"{label}: oracle infeasible at {step_kw} kW"
            gap = lp - oracle.objective
            bound = oracle_gap_bound(
                pv, case_id, NAS, ECON, cfg, diesel, power_step_kw=step_kw
            )
            assert gap >= -jitter, f"{label}: oracle beat the LP at {step_kw} kW"
            assert gap <= bound + jitter, f"{label}: gap {gap} > bound {bound}"
            gaps.append(gap)

        # finer grids contain every coarser candidate, so the gap may only shrink
        for coarse, fine in zip(gaps, gaps[1:]):
            assert fine <= coarse + jitter


# ---------------------------------------- 7. qualitative sizing patterns

class TestQualitativeSizing:
    def test_all_default_case_solves_are_clean(self, default_run):
        records, _ = default_run
        for label, record in records.items():
            assert record.ok, f"{label}: {record.status}"

    def test_battery_rating_weakly_decreases_with_added_freedom(self, default_run):
        records, _ = default_run
        rating = {c: records[c].dispatch.p_batt_max for c in "ABCD"}
        assert rating["A"] >= rating["B"] - 1e-6
        assert rating["B"] >= rating["C"] - 1e-6
        assert rating["C"] >= rating["D"] - 1e-6

    def test_revenue_decrement_weakly_decreases(self, default_run):
        records, _ = default_run
        base = records["baseline"].dispatch.net_benefit
        dec = {
            c: (base - records[c].dispatch.net_benefit) / abs(base) for c in "ABCD"
        }
        slack = 1e-9
        assert dec["A"] >= dec["B"] - slack >= dec["D"] - 2 * slack
        assert dec["A"] >= dec["C"] - slack >= dec["D"] - 2 * slack
        # smoothing must actually cost something on a high-variability trace
        assert dec["A"] > 0.0


# --------------------------------------------------- 8. price-scaling law

class TestPriceScalingLaw:
    FACTOR = 3.0

    def _scaled_specs(self):
        k = self.FACTOR
        econ = replace(ECON, energy_price=k * ECON.energy_price)
        batt = replace(
            NAS,
            capital_power=k * NAS.capital_power,
            capital_energy=k * NAS.capital_energy,
            om_power=k * NAS.om_power,
            om_energy=k * NAS.om_energy,
            salvage_power=k * NAS.salvage_power,
            salvage_energy=k * NAS.salvage_energy,
        )
        diesel = replace(
            DIESEL,
            capital=k * DIESEL.capital,
            om=k * DIESEL.om,
            salvage=k * DIESEL.salvage,
            fuel_price=k * DIESEL.fuel_price,
            emission_charge_total=k * DIESEL.emission_charge_total,
        )
        return econ, batt, diesel

    def test_tripled_prices_triple_every_objective(self):
        weather = filter_low_irradiance(synth_weather(days=1, seed=0, variability=0.8))
        pv = pv_power(weather, PvPlantSpec())
        cfg = ConstraintConfig()
        econ3, nas3, diesel3 = self._scaled_specs()
        for case_id in "ABCD":
            d1 = DIESEL if case_id in ("C", "D") else None
            d3 = diesel3 if case_id in ("C", "D") else None
            base_form = build_case(case_id, pv, NAS, ECON, cfg, diesel=d1)
            base = extract_solution(base_form, solve(base_form.problem))
            scaled_form = build_case(case_id, pv, nas3, econ3, cfg, diesel=d3)
            scaled = extract_solution(scaled_form, solve(scaled_form.problem))

            expected = self.FACTOR * base.net_benefit
            assert scaled.net_benefit == pytest.approx(expected, rel=SCALING_REL)

            base_ok = check_dispatch(base, pv, cfg, NAS, diesel=d1)["passed"]
            scaled_ok = check_dispatch(scaled, pv, cfg, nas3, diesel=d3)["passed"]
            assert base_ok == scaled_ok


# --------------------------------------------------------- 9. determinism

class TestDeterminism:
    def test_repeated_cli_runs_are_byte_identical(self, tmp_path):
        # seed 0 keeps the diesel busy, so the stock presets pass the
        # comparison guard and the run exits cleanly
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "weather": {"synthetic": {"days": 1, "seed": 0, "variability": 0.8}},
            "cases": ["A", "B", "C", "D", "baseline"],
        }))
        outs = []
        for name in ("first", "second"):
            out = tmp_path / name
            proc = subprocess.run(
                [sys.executable, "-m", "pvsmooth.cli", "run", str(cfg),
                 "--output-dir", str(out)],
                capture_output=True, text=True, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            outs.append(out)

        first, second = outs
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in second.iterdir())
        assert names  # the run must have produced artifacts
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes(), name


# ------------------------------------------------------ 10. public names

def test_every_exported_name_resolves():
    for module in (pvsmooth, pvsmooth.lp):
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert missing == [], module.__name__
