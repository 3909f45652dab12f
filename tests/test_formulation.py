"""Tests for the four dispatch-and-sizing LP formulations.

Most tests pin ``annualization=1.0`` so that objective arithmetic can be
done by hand: revenue per kW of injection over one step is then simply
price * step_hours * revenue_multiplier.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from lp_rows import row_coeffs

from pvsmooth.economics import BatterySpec, DieselSpec, EconomicParams, compute_factors
from pvsmooth.errors import SolveStatusError
from pvsmooth.formulation import (
    ConstraintConfig,
    build_case,
    extract_solution,
)
from pvsmooth.lp import parse_mps, render_mps, simplex, solve
from pvsmooth.pvmodel import PowerSeries

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
NAS_LOSSY = replace(NAS, eff_power=0.85, eff_energy=0.85)

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


def series(vals, active=None, h=1.0 / 6.0) -> PowerSeries:
    vals = np.asarray(vals, dtype=float)
    if active is None:
        active = np.ones(len(vals), dtype=bool)
    return PowerSeries(values=vals, active=np.asarray(active, bool), step_hours=h)


def config(**kw) -> ConstraintConfig:
    kw.setdefault("fluctuation_limit", 150.0)
    kw.setdefault("annualization", 1.0)
    return ConstraintConfig(**kw)


def solved(case_id, pv, cfg, batt=NAS, econ=ECON, diesel=None):
    if case_id in ("C", "D") and diesel is None:
        diesel = DIESEL
    form = build_case(case_id, pv, batt, econ, cfg, diesel=diesel)
    sol = solve(form.problem)
    return form, extract_solution(form, sol)


def revenue_per_kw(econ=ECON, h=1.0 / 6.0, annualization=1.0):
    return econ.energy_price * h * annualization * compute_factors(NAS, econ).revenue_multiplier


class TestProblemShape:
    def test_case_a_dimensions(self):
        form = build_case("A", series([300, 600, 250]), NAS, ECON, config())
        # per step: P_G, P_b, E_b; plus the two battery ratings
        assert form.problem.n_vars == 3 * 3 + 2
        # 3 balance + 4 ramp + 2 SOC + 6 battery power + 6 energy band + cyclic
        assert form.problem.n_rows == 22

    def test_case_d_dimensions(self):
        form = build_case("D", series([300, 600, 250]), NAS, ECON, config(), diesel=DIESEL)
        assert form.problem.n_vars == 5 * 3 + 3
        assert form.problem.n_rows == 22 + 3 + 1  # diesel caps + fuel budget

    @pytest.mark.parametrize("case_id", ["A", "B", "C", "D"])
    def test_column_blocks_cover_every_column_once(self, case_id):
        form = build_case(case_id, series([300, 600, 250]), NAS, ECON, config(),
                          diesel=DIESEL if case_id in ("C", "D") else None)
        indices = sorted(j for block in form.columns.values()
                         for j in range(form.problem.n_vars)[block])
        assert indices == list(range(form.problem.n_vars))

    def test_explicit_zero_survives_mps_round_trip(self):
        # with no SOC floor every EBL row keeps its (EBMAX, 0.0) coefficient
        form = build_case("A", series([300, 600, 250]), replace(NAS, soc_min_fraction=0.0),
                          ECON, config())
        j = form.columns["e_batt_max"].start
        text = render_mps(form.problem)
        parsed = parse_mps(text)
        for p in (form.problem, parsed):
            ebl = [i for i, name in enumerate(p.row_names) if name.startswith("EBL")]
            assert len(ebl) == 3
            for i in ebl:
                assert row_coeffs(p, i)[j] == 0.0
        assert render_mps(parsed) == text

    def test_case_d_csr_layout(self):
        # five retained steps in two blocks (the third sample is dropped);
        # columns: PG 0-4, PB 5-9, EB 10-14, PC 15-19, PD 20-24, PBMAX 25,
        # EBMAX 26, PDMAX 27. Per-row coefficient order is pinned because
        # A @ x sums in stored order.
        pv = series([300, 600, 0, 250, 400, 350], active=[1, 1, 0, 1, 1, 1], h=0.5)
        cfg = config(initial_soc_fraction=0.5)
        form = build_case("D", pv, replace(NAS, soc_min_fraction=0.0), ECON, cfg, diesel=DIESEL)
        p = form.problem
        fuel = (1e6 / 0.25) * (3.0 / 8760.0)
        expect = [
            ("BAL00001", "=", 300.0, [(0, 1.0), (5, -1.0), (15, 1.0), (20, -1.0)]),
            ("BAL00002", "=", 600.0, [(1, 1.0), (6, -1.0), (16, 1.0), (21, -1.0)]),
            ("BAL00003", "=", 250.0, [(2, 1.0), (7, -1.0), (17, 1.0), (22, -1.0)]),
            ("BAL00004", "=", 400.0, [(3, 1.0), (8, -1.0), (18, 1.0), (23, -1.0)]),
            ("BAL00005", "=", 350.0, [(4, 1.0), (9, -1.0), (19, 1.0), (24, -1.0)]),
            ("RUP00002", "<=", 150.0, [(1, 1.0), (0, -1.0)]),
            ("RDN00002", "<=", 150.0, [(1, -1.0), (0, 1.0)]),
            ("RUP00004", "<=", 150.0, [(3, 1.0), (2, -1.0)]),
            ("RDN00004", "<=", 150.0, [(3, -1.0), (2, 1.0)]),
            ("RUP00005", "<=", 150.0, [(4, 1.0), (3, -1.0)]),
            ("RDN00005", "<=", 150.0, [(4, -1.0), (3, 1.0)]),
            ("SOC00002", "=", 0.0, [(11, 1.0), (10, -1.0), (5, 0.5)]),
            ("SOC00003", "=", 0.0, [(12, 1.0), (11, -1.0), (6, 0.5)]),
            ("SOC00004", "=", 0.0, [(13, 1.0), (12, -1.0), (7, 0.5)]),
            ("SOC00005", "=", 0.0, [(14, 1.0), (13, -1.0), (8, 0.5)]),
            ("PBU00001", "<=", 0.0, [(5, 1.0), (25, -1.0)]),
            ("PBL00001", "<=", 0.0, [(5, -1.0), (25, -1.0)]),
            ("PBU00002", "<=", 0.0, [(6, 1.0), (25, -1.0)]),
            ("PBL00002", "<=", 0.0, [(6, -1.0), (25, -1.0)]),
            ("PBU00003", "<=", 0.0, [(7, 1.0), (25, -1.0)]),
            ("PBL00003", "<=", 0.0, [(7, -1.0), (25, -1.0)]),
            ("PBU00004", "<=", 0.0, [(8, 1.0), (25, -1.0)]),
            ("PBL00004", "<=", 0.0, [(8, -1.0), (25, -1.0)]),
            ("PBU00005", "<=", 0.0, [(9, 1.0), (25, -1.0)]),
            ("PBL00005", "<=", 0.0, [(9, -1.0), (25, -1.0)]),
            ("EBU00001", "<=", 0.0, [(10, 1.0), (26, -1.0)]),
            ("EBL00001", "<=", 0.0, [(10, -1.0), (26, 0.0)]),
            ("EBU00002", "<=", 0.0, [(11, 1.0), (26, -1.0)]),
            ("EBL00002", "<=", 0.0, [(11, -1.0), (26, 0.0)]),
            ("EBU00003", "<=", 0.0, [(12, 1.0), (26, -1.0)]),
            ("EBL00003", "<=", 0.0, [(12, -1.0), (26, 0.0)]),
            ("EBU00004", "<=", 0.0, [(13, 1.0), (26, -1.0)]),
            ("EBL00004", "<=", 0.0, [(13, -1.0), (26, 0.0)]),
            ("EBU00005", "<=", 0.0, [(14, 1.0), (26, -1.0)]),
            ("EBL00005", "<=", 0.0, [(14, -1.0), (26, 0.0)]),
            ("DCP00001", "<=", 0.0, [(20, 1.0), (27, -1.0)]),
            ("DCP00002", "<=", 0.0, [(21, 1.0), (27, -1.0)]),
            ("DCP00003", "<=", 0.0, [(22, 1.0), (27, -1.0)]),
            ("DCP00004", "<=", 0.0, [(23, 1.0), (27, -1.0)]),
            ("DCP00005", "<=", 0.0, [(24, 1.0), (27, -1.0)]),
            ("FUELCAP", "<=", fuel, [(20, 0.5), (21, 0.5), (22, 0.5), (23, 0.5), (24, 0.5)]),
            ("INITSOC", "=", 0.0, [(10, 1.0), (26, -0.5)]),
            ("CYCSOC", "<=", 0.0, [(10, 1.0), (14, -1.0)]),
        ]
        assert p.A.shape == (len(expect), 28)
        assert list(p.row_names) == [name for name, _, _, _ in expect]
        assert list(p.relations) == [rel for _, rel, _, _ in expect]
        assert p.rhs.tolist() == [rhs for _, _, rhs, _ in expect]
        indptr = np.cumsum([0] + [len(coeffs) for _, _, _, coeffs in expect])
        assert p.A.indptr.tolist() == indptr.tolist()
        assert p.A.indices.tolist() == [j for *_, coeffs in expect for j, _ in coeffs]
        assert p.A.data.tolist() == [v for *_, coeffs in expect for _, v in coeffs]
        # the EBL zeros are stored entries, and positive zeros
        assert not np.signbit(p.A.data[p.A.data == 0.0]).any()
        assert np.count_nonzero(p.A.data == 0.0) == 5

    def test_no_ramp_rows_without_a_limit(self):
        form = build_case("A", series([300, 600, 250]), NAS, ECON,
                          config(fluctuation_limit=math.inf))
        names = list(form.problem.row_names)
        assert not any(n.startswith(("RUP", "RDN")) for n in names)

    def test_ramp_skips_gaps_but_soc_chains_through(self):
        pv = series([300, 310, 0, 290, 280], active=[True, True, False, True, True])
        form = build_case("A", pv, NAS, ECON, config())
        names = list(form.problem.row_names)
        ramp = sorted(n for n in names if n.startswith("RUP"))
        # retained steps 0,1,3,4; step 3 opens a new block so only two pairs
        assert ramp == ["RUP00002", "RUP00004"]
        soc = sorted(n for n in names if n.startswith("SOC"))
        assert soc == ["SOC00002", "SOC00003", "SOC00004"]

    def test_initial_soc_row_only_with_a_fraction(self):
        pv = series([300, 600])
        free = build_case("A", pv, NAS, ECON, config())
        fixed = build_case("A", pv, NAS, ECON, config(initial_soc_fraction=0.5))
        assert "INITSOC" not in free.problem.row_names
        assert "INITSOC" in fixed.problem.row_names

    def test_curtailment_bounded_by_available_pv(self):
        pv = series([300, 600, 250])
        form = build_case("B", pv, NAS, ECON, config())
        for i, expect in enumerate([300.0, 600.0, 250.0]):
            j = form.columns["p_curt"].start + i
            assert form.problem.lower[j] == 0.0
            assert form.problem.upper[j] == expect

    def test_step_comes_from_the_trace(self):
        # a 15-minute trace needs no setting beyond the series itself
        form = build_case("D", series([300, 600, 250], h=0.25), NAS, ECON,
                          ConstraintConfig(), diesel=DIESEL)
        b0 = form.columns["p_batt"].start
        d0 = form.columns["p_diesel"].start
        rows = {name: row_coeffs(form.problem, i)
                for i, name in enumerate(form.problem.row_names)}
        soc = [name for name in rows if name.startswith("SOC")]
        assert soc == ["SOC00002", "SOC00003"]
        for k, name in enumerate(soc):
            assert rows[name][b0 + k] == 0.25
        assert rows["FUELCAP"] == {d0 + i: 0.25 for i in range(3)}

    def test_diesel_cases_require_a_spec(self):
        with pytest.raises(ValueError, match="diesel"):
            build_case("C", series([300, 600]), NAS, ECON, config())

    def test_unknown_case_rejected(self):
        with pytest.raises(ValueError, match="unknown case"):
            build_case("E", series([300, 600]), NAS, ECON, config())

    def test_single_step_rejected(self):
        with pytest.raises(ValueError):
            build_case("A", series([300.0]), NAS, ECON, config())


class TestFlatTrace:
    """A constant trace needs no smoothing, so nothing should be bought."""

    @pytest.mark.parametrize("case_id", ["A", "B", "C", "D"])
    def test_no_equipment_bought(self, case_id):
        pv = series([5000.0] * 6)
        _, sol = solved(case_id, pv, config())
        assert sol.p_batt_max == pytest.approx(0.0, abs=1e-7)
        assert sol.e_batt_max == pytest.approx(0.0, abs=1e-7)
        assert sol.p_diesel_max == pytest.approx(0.0, abs=1e-7)
        np.testing.assert_allclose(sol.p_grid, pv.values, atol=1e-7)
        # pure energy revenue: price * h * multiplier * total injection
        assert sol.net_benefit == pytest.approx(revenue_per_kw() * 30000.0, rel=1e-9)


class TestRampSpike:
    def test_two_step_spike_absorbed_at_minimum_cost(self):
        # a 300 kW jump must shrink to 150; charging on the final step does
        # that without any stored-energy requirement
        pv = series([100.0, 400.0])
        _, sol = solved("A", pv, config())
        np.testing.assert_allclose(sol.p_batt, [0.0, -150.0], atol=1e-7)
        np.testing.assert_allclose(sol.p_grid, [100.0, 250.0], atol=1e-7)
        assert sol.p_batt_max == pytest.approx(150.0, abs=1e-7)
        assert sol.e_batt_max == pytest.approx(0.0, abs=1e-7)
        beta = compute_factors(NAS, ECON).beta
        expect = revenue_per_kw() * 350.0 - beta * 150.0
        assert sol.net_benefit == pytest.approx(expect, rel=1e-9)

    def test_grid_injection_respects_the_band(self):
        pv = series([300.0, 600.0, 250.0, 500.0])
        for case_id in ("A", "B", "C", "D"):
            _, sol = solved(case_id, pv, config())
            jumps = np.abs(np.diff(sol.p_grid))
            assert np.all(jumps <= 150.0 + 1e-6)

    def test_net_stored_energy_cannot_be_spent(self):
        # with the cyclic constraint the battery may not end emptier than it
        # started, so pre-final discharges must be recharged
        pv = series([250.0, 100.0, 250.0])
        _, sol = solved("A", pv, config())
        h = 1.0 / 6.0
        assert h * np.sum(sol.p_batt[:-1]) <= 1e-7


class TestObjectiveCoefficients:
    def test_default_annualization_counts_wall_clock_hours(self):
        pv = series([300.0] * 6)  # one hour of trace
        form = build_case("A", pv, NAS, ECON, config(annualization=None))
        j = form.columns["p_grid"].start
        expect = revenue_per_kw(annualization=8760.0)
        assert form.problem.objective[j] == pytest.approx(expect, rel=1e-12)

    def test_battery_terms_use_present_worth_by_default(self):
        form = build_case("A", series([300, 600]), NAS_LOSSY, ECON, config())
        factors = compute_factors(NAS_LOSSY, ECON)
        assert form.problem.objective[form.columns["p_batt_max"].start] == pytest.approx(
            -factors.beta / 0.85, rel=1e-12
        )
        assert form.problem.objective[form.columns["e_batt_max"].start] == pytest.approx(
            -factors.gamma / 0.85, rel=1e-12
        )

    def test_fuel_budget_scales_with_trace_length(self):
        pv = series([300.0] * 6)  # one hour out of 8760
        form = build_case("C", pv, NAS, ECON, config(), diesel=DIESEL)
        expect = (1e6 / 0.25) * (1.0 / 8760.0)
        fuelcap = form.problem.row_names.index("FUELCAP")
        assert form.problem.rhs[fuelcap] == pytest.approx(expect, rel=1e-12)


class TestNetBenefitRecomputation:
    """Re-derive the objective from the extracted series and price data."""

    @pytest.mark.parametrize("case_id", ["A", "B", "C", "D"])
    def test_matches_a_from_scratch_evaluation(self, case_id):
        pv = series([300.0, 600.0, 250.0, 500.0])
        econ = EconomicParams(energy_price=0.45, discount_rate=0.05, horizon_years=18.0)
        diesel = replace(DIESEL, emission_charge_total=6000.0)
        cfg = config()
        _, sol = solved(case_id, pv, cfg, batt=NAS_LOSSY, econ=econ, diesel=diesel)

        factors = compute_factors(NAS_LOSSY, econ, diesel if case_id in ("C", "D") else None)
        h = 1.0 / 6.0
        value = econ.energy_price * h * factors.revenue_multiplier * np.sum(sol.p_grid)
        value -= factors.beta / 0.85 * sol.p_batt_max
        value -= factors.gamma / 0.85 * sol.e_batt_max
        if case_id in ("C", "D"):
            value -= factors.sigma / diesel.efficiency * sol.p_diesel_max
            fuel = 0.25 * 0.8 * h * factors.revenue_multiplier
            value -= fuel * np.sum(sol.p_diesel)
            value -= 6000.0
        assert sol.net_benefit == pytest.approx(value, rel=1e-6)


class TestCaseNesting:
    def test_wider_cases_never_earn_less(self):
        pv = series([300.0, 600.0, 250.0, 500.0])
        nets = {}
        for case_id in ("A", "B", "C", "D"):
            _, sol = solved(case_id, pv, config())
            nets[case_id] = sol.net_benefit
        tol = 1e-6 * (1.0 + abs(nets["D"]))
        assert nets["A"] <= nets["B"] + tol
        assert nets["B"] <= nets["D"] + tol
        assert nets["A"] <= nets["C"] + tol
        assert nets["C"] <= nets["D"] + tol


class TestPriceScaling:
    def test_tripling_all_prices_triples_the_objective(self):
        k = 3.0
        pv = series([300.0, 600.0, 250.0])
        econ3 = EconomicParams(energy_price=0.45 * k, discount_rate=0.0, horizon_years=18.0)
        nas3 = replace(NAS, capital_power=166.0 * k, capital_energy=28.55 * k,
                       om_power=1.66 * k)
        diesel3 = replace(DIESEL, capital=76.0 * k, fuel_price=0.8 * k,
                          emission_charge_total=0.0)
        for case_id in ("A", "B", "C", "D"):
            _, base = solved(case_id, pv, config())
            _, scaled = solved(case_id, pv, config(), batt=nas3, econ=econ3, diesel=diesel3)
            assert scaled.net_benefit == pytest.approx(k * base.net_benefit, rel=1e-9)
            np.testing.assert_allclose(scaled.p_grid, base.p_grid, atol=1e-6)


class TestExtraction:
    def test_refuses_a_truncated_solve(self, monkeypatch):
        # a limit below one iteration stops the solve after its first
        monkeypatch.setattr(simplex, "ITERATION_LIMIT_FACTOR", 1e-9)
        pv = series([300.0, 600.0])
        form = build_case("A", pv, NAS, ECON, config())
        sol = solve(form.problem)
        assert sol.status == "iteration-limit"
        with pytest.raises(SolveStatusError, match="iteration-limit"):
            extract_solution(form, sol)

    def test_series_follow_the_active_mask(self):
        pv = series([300, 310, 0, 290, 280], active=[True, True, False, True, True])
        _, sol = solved("D", pv, config())
        np.testing.assert_array_equal(sol.steps, [0, 1, 3, 4])
        assert len(sol.p_grid) == 4
        assert len(sol.p_curt) == 4
        assert len(sol.p_diesel) == 4
        assert sol.diesel_energy == pytest.approx(np.sum(sol.p_diesel) / 6.0)

    def test_absent_streams_come_back_empty(self):
        _, sol = solved("A", series([300, 600]), config())
        np.testing.assert_array_equal(sol.p_curt, [0.0, 0.0])
        np.testing.assert_array_equal(sol.p_diesel, [0.0, 0.0])
        assert sol.p_diesel_max == 0.0
        assert sol.diesel_energy == 0.0

    def test_emission_charge_is_a_constant_offset(self):
        # expensive fuel keeps the generator off, so the two solves differ
        # by exactly the lump emission charge
        pv = series([300.0, 400.0])
        costly = replace(DIESEL, fuel_price=50.0)
        charged = replace(costly, emission_charge_total=6000.0)
        _, base = solved("C", pv, config(), diesel=costly)
        _, hit = solved("C", pv, config(), diesel=charged)
        assert np.allclose(base.p_diesel, 0.0, atol=1e-9)
        assert np.allclose(hit.p_diesel, 0.0, atol=1e-9)
        assert hit.net_benefit == pytest.approx(base.net_benefit - 6000.0, rel=1e-12)


@st.composite
def smooth_traces(draw):
    """Traces whose jumps already fit inside the fluctuation band."""
    n = draw(st.integers(min_value=2, max_value=6))
    base = draw(st.integers(min_value=20, max_value=80)) * 10.0
    vals = [base]
    for _ in range(n - 1):
        step = draw(st.integers(min_value=-14, max_value=14)) * 10.0
        vals.append(min(max(vals[-1] + step, 0.0), 1000.0))
    return vals


class TestAlreadySmoothTraces:
    @settings(max_examples=20, deadline=None)
    @given(vals=smooth_traces())
    def test_nothing_bought_when_the_band_is_never_hit(self, vals):
        pv = series(vals)
        _, sol = solved("A", pv, config())
        assert sol.p_batt_max == pytest.approx(0.0, abs=1e-6)
        assert sol.e_batt_max == pytest.approx(0.0, abs=1e-6)
        np.testing.assert_allclose(sol.p_grid, pv.values, atol=1e-6)
        expect = revenue_per_kw() * float(np.sum(pv.values))
        assert sol.net_benefit == pytest.approx(expect, rel=1e-9, abs=1e-9)
