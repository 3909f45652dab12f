"""Present-worth factor checks against an independent loop oracle and frozen
golden values.

Golden S=0 values come from hand arithmetic on the bundled cost presets
(e.g. NaS at zero discount: 3 purchases * 1000 + 3 $/kW-yr * 6 yr - 3 * 10
salvage = 2988 $/kW). The S=0.05 values were frozen from a standalone
discounting script before this module was tested.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pvsmooth.economics import (
    BatterySpec,
    DieselSpec,
    EconomicParams,
    annuity_factor,
    compute_factors,
    replacement_count,
)

NAS = BatterySpec("nas", 1000, 170, 3, 1.5, 10, 1.7, 6)
LEAD_ACID = BatterySpec("lead_acid", 300, 150, 30, 15, 3, 1.5, 2)
LI_ION = BatterySpec("li_ion", 1300, 500, 2, 1, 13, 5, 9)
NI_CD = BatterySpec("ni_cd", 600, 390, 4, 2, 6, 3.9, 3)

S0 = EconomicParams(discount_rate=0.0)
S5 = EconomicParams(discount_rate=0.05)


def pw_oracle(capital, om, salvage, lifetime, horizon, rate):
    # plain loops, no numpy, no shared code with the implementation
    n = math.ceil(horizon / lifetime - 1e-9)
    total = 0.0
    for i in range(1, n + 1):
        total += capital * (1.0 + rate) ** (-(i - 1) * lifetime)
        total -= salvage * (1.0 + rate) ** (-i * lifetime)
    if rate == 0.0:
        total += om * lifetime
    else:
        g = (1.0 + rate) ** lifetime
        total += om * (g - 1.0) / (rate * g)
    return total


class TestReplacementCount:
    def test_exact_division(self):
        assert replacement_count(18, 6) == 3
        assert replacement_count(18, 9) == 2
        assert replacement_count(18, 2) == 9

    def test_fractional_lifetime(self):
        assert replacement_count(18, 4.5) == 4

    def test_rounds_up_on_partial_lifetime(self):
        assert replacement_count(18, 5) == 4
        assert replacement_count(18, 17.99) == 2

    def test_lifetime_longer_than_horizon(self):
        assert replacement_count(10, 25) == 1


class TestAnnuityFactor:
    def test_zero_rate_limit(self):
        assert annuity_factor(6, 0.0) == 6

    def test_known_value(self):
        # 1/1.05 + ... + 1/1.05^6
        expected = sum(1.05**-k for k in range(1, 7))
        assert annuity_factor(6, 0.05) == pytest.approx(expected, rel=1e-12)

    def test_continuity_near_zero_rate(self):
        assert annuity_factor(6, 1e-10) == pytest.approx(6.0, rel=1e-6)


class TestGoldenFactors:
    def test_nas_zero_discount(self):
        assert compute_factors(NAS, S0).beta == pytest.approx(2988.0, abs=1e-9)
        assert compute_factors(NAS, S0).gamma == pytest.approx(513.9, abs=1e-9)

    def test_diesel_zero_discount(self):
        assert compute_factors(NAS, S0, DieselSpec()).sigma == pytest.approx(1368.0, abs=1e-9)

    # Frozen from the standalone discounting script at S=0.05, T=18.
    @pytest.mark.parametrize(
        "spec, beta, gamma",
        [
            (LEAD_ACID, 1924.6906579709, 962.3453289854),
            (NAS, 2301.0941563192, 396.2109417209),
            (LI_ION, 2138.4255500103, 824.1116319291),
            (NI_CD, 2564.1546262150, 1665.0665582221),
        ],
        ids=["lead_acid", "nas", "li_ion", "ni_cd"],
    )
    def test_battery_factors_at_five_percent(self, spec, beta, gamma):
        assert compute_factors(spec, S5).beta == pytest.approx(beta, rel=1e-10)
        assert compute_factors(spec, S5).gamma == pytest.approx(gamma, rel=1e-10)

    def test_diesel_at_five_percent(self):
        sigma = compute_factors(NAS, S5, DieselSpec()).sigma
        assert sigma == pytest.approx(1078.9510648739, rel=1e-10)

    def test_revenue_multiplier(self):
        assert annuity_factor(18, 0.05) == pytest.approx(11.689586902650, rel=1e-10)
        assert annuity_factor(18, 0.0) == 18.0


class TestAgainstLoopOracle:
    @pytest.mark.parametrize("spec", [LEAD_ACID, NAS, LI_ION, NI_CD], ids=lambda s: s.name)
    @pytest.mark.parametrize("rate", [0.0, 0.03, 0.05, 0.12])
    def test_battery_factors(self, spec, rate):
        econ = EconomicParams(discount_rate=rate)
        assert compute_factors(spec, econ).beta == pytest.approx(
            pw_oracle(spec.capital_power, spec.om_power, spec.salvage_power,
                      spec.lifetime_years, 18, rate), rel=1e-12)
        assert compute_factors(spec, econ).gamma == pytest.approx(
            pw_oracle(spec.capital_energy, spec.om_energy, spec.salvage_energy,
                      spec.lifetime_years, 18, rate), rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        capital=st.floats(min_value=0.0, max_value=5000.0),
        om_frac=st.floats(min_value=0.0, max_value=0.2),
        salvage_frac=st.floats(min_value=0.0, max_value=1.0),
        lifetime=st.floats(min_value=1.0, max_value=30.0),
        horizon=st.integers(min_value=1, max_value=40),
        rate=st.floats(min_value=0.0, max_value=0.25),
    )
    def test_arbitrary_parameters(self, capital, om_frac, salvage_frac, lifetime, horizon, rate):
        spec = BatterySpec("x", capital, 1.0, capital * om_frac, 0.0,
                           capital * salvage_frac, 0.0, lifetime)
        econ = EconomicParams(discount_rate=rate, horizon_years=horizon)
        got = compute_factors(spec, econ).beta
        want = pw_oracle(capital, capital * om_frac, capital * salvage_frac,
                         lifetime, horizon, rate)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-9)


class TestStructuralProperties:
    def test_discounting_never_raises_cost(self):
        # every later cash flow shrinks, so S>0 can only cut the factor
        for spec in (LEAD_ACID, NAS, LI_ION, NI_CD):
            assert compute_factors(spec, S5).beta < compute_factors(spec, S0).beta

    def test_salvage_reduces_cost(self):
        no_salvage = BatterySpec("nas0", 1000, 170, 3, 1.5, 0, 0, 6)
        assert compute_factors(no_salvage, S5).beta > compute_factors(NAS, S5).beta

    def test_compute_factors_bundles_everything(self):
        f = compute_factors(NAS, S5, DieselSpec())
        d = DieselSpec()
        assert f.beta == pytest.approx(pw_oracle(1000, 3, 10, 6, 18, 0.05), rel=1e-12)
        assert f.gamma == pytest.approx(pw_oracle(170, 1.5, 1.7, 6, 18, 0.05), rel=1e-12)
        assert f.sigma == pytest.approx(
            pw_oracle(d.capital, d.om, d.salvage, d.lifetime_years_effective, 18, 0.05), rel=1e-12
        )
        assert f.revenue_multiplier == pytest.approx(11.689586902650, rel=1e-10)

    def test_no_diesel_means_zero_sigma(self):
        f = compute_factors(NAS, S5)
        assert f.sigma == 0.0


class TestValidation:
    def test_salvage_above_capital_rejected(self):
        with pytest.raises(ValueError, match="salvage_power"):
            BatterySpec("bad", 100, 100, 1, 1, 200, 1, 5)

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError, match="capital_power"):
            BatterySpec("bad", -1, 100, 1, 1, 0, 1, 5)

    def test_bad_soc_floor_rejected(self):
        with pytest.raises(ValueError, match="soc_min"):
            BatterySpec("bad", 100, 100, 1, 1, 0, 1, 5, soc_min_fraction=1.0)

    def test_diesel_validation(self):
        with pytest.raises(ValueError, match="fuel_per_kwh"):
            DieselSpec(fuel_per_kwh=0.0)
