"""PV conversion chain checks.

The single-point golden value below was worked by hand from the model
equations: G=500 W/m2, ambient 25 C, NOCT 45 C gives cell temp
25 + 500*25/800 = 40.625 C; DC = 10000*0.5*(1 - 0.004*15.625) = 4687.5 kW;
AC = 4687.5*0.9 = 4218.75 kW.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pvsmooth.pvmodel import PowerSeries, PvPlantSpec, pv_power
from pvsmooth.weather import WeatherSeries, filter_low_irradiance, synth_weather


def series(irr, temp=None, step=1.0 / 6.0):
    irr = np.asarray(irr, dtype=float)
    if temp is None:
        temp = np.full_like(irr, 25.0)
    return WeatherSeries(step, irr, np.asarray(temp, dtype=float))


def test_hand_computed_operating_point():
    w = series([500.0, 500.0])
    p = pv_power(w, PvPlantSpec())
    assert p.values[0] == pytest.approx(4218.75)


def test_zero_irradiance_zero_power():
    p = pv_power(series([0.0, 0.0]), PvPlantSpec())
    assert np.all(p.values == 0.0)


def test_reference_conditions_give_rated_times_inverter():
    # cell temp rises above ambient, so hold the cell AT reference by
    # lowering ambient: T_amb = 25 - 1000*25/800 = -6.25 C
    w = series([1000.0, 1000.0], temp=[-6.25, -6.25])
    p = pv_power(w, PvPlantSpec())
    assert p.values[0] == pytest.approx(9000.0)


def test_hot_cell_derates_power():
    cool = pv_power(series([800.0, 800.0], temp=[10.0, 10.0]), PvPlantSpec())
    hot = pv_power(series([800.0, 800.0], temp=[40.0, 40.0]), PvPlantSpec())
    assert hot.values[0] < cool.values[0]
    # derate slope: 30 C of ambient is 30 C of cell temp at fixed G
    expected_ratio = (1.0 - 0.004 * (800 * 25 / 800 + 40 - 25)) / (
        1.0 - 0.004 * (800 * 25 / 800 + 10 - 25)
    )
    assert hot.values[0] / cool.values[0] == pytest.approx(expected_ratio)


def test_output_clamped_to_rating():
    # very cold cell would push DC above nameplate; the plant clips
    w = series([1100.0, 1100.0], temp=[-30.0, -30.0])
    plant = PvPlantSpec(reference_irradiance=900.0)
    p = pv_power(w, plant)
    assert p.values[0] == pytest.approx(plant.rated_power * plant.inverter_efficiency)


def test_mask_carried_from_weather():
    w = filter_low_irradiance(synth_weather(1, seed=5, variability=0.3))
    p = pv_power(w, PvPlantSpec())
    np.testing.assert_array_equal(p.active, w.active)
    assert len(p.retained_values()) == np.count_nonzero(w.active)


@settings(max_examples=50, deadline=None)
@given(
    g=st.floats(min_value=0.0, max_value=1200.0),
    temp=st.floats(min_value=-20.0, max_value=45.0),
)
def test_power_always_within_plant_limits(g, temp):
    p = pv_power(series([g, g], temp=[temp, temp]), PvPlantSpec())
    assert 0.0 <= p.values[0] <= 9000.0 + 1e-9


def test_power_monotone_in_irradiance_at_fixed_temp():
    gs = np.linspace(0, 1000, 21)
    p = pv_power(series(gs, temp=np.full(21, 20.0)), PvPlantSpec())
    assert np.all(np.diff(p.values) >= -1e-9)


class TestPowerSeries:
    def test_block_starts_on_contiguous_mask(self):
        p = PowerSeries(1.0, np.arange(5.0))
        np.testing.assert_array_equal(p.block_starts(), [True, False, False, False, False])

    def test_block_starts_after_gap(self):
        active = np.array([True, True, False, True, True])
        p = PowerSeries(1.0, np.arange(5.0), active=active)
        np.testing.assert_array_equal(p.retained_indices(), [0, 1, 3, 4])
        np.testing.assert_array_equal(p.block_starts(), [True, False, True, False])

    def test_validation(self):
        with pytest.raises(ValueError, match="step_hours"):
            PowerSeries(0.0, np.array([1.0]))
