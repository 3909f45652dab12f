import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pvsmooth.errors import WeatherFormatError
from pvsmooth.weather import (
    DEFAULT_STEP_HOURS,
    WeatherSeries,
    filter_low_irradiance,
    load_weather,
    synth_weather,
)


def write_csv(tmp_path, rows, header="timestamp,irradiance_wm2,temp_c"):
    p = tmp_path / "weather.csv"
    p.write_text(header + "\n" + "\n".join(rows) + "\n")
    return p


class TestLoadWeather:
    def test_reads_uniform_trace(self, tmp_path):
        p = write_csv(tmp_path, [
            "2024-06-01T10:00:00,800.5,25.0",
            "2024-06-01T10:10:00,820.0,25.4",
            "2024-06-01T10:20:00,790.25,25.1",
        ])
        w = load_weather(p)
        assert len(w) == 3
        assert w.step_hours == pytest.approx(1.0 / 6.0)
        assert w.irradiance[1] == 820.0
        assert w.ambient_temp[2] == 25.1
        assert w.active.all()
        assert w.total_hours == pytest.approx(0.5)

    def test_wrong_header_is_rejected(self, tmp_path):
        p = write_csv(tmp_path, ["2024-06-01T10:00:00,1,2"], header="time,ghi,temp")
        with pytest.raises(WeatherFormatError, match="header"):
            load_weather(p)

    def test_bad_value_names_row_and_column(self, tmp_path):
        p = write_csv(tmp_path, [
            "2024-06-01T10:00:00,800,25",
            "2024-06-01T10:10:00,oops,25",
        ])
        with pytest.raises(WeatherFormatError, match=r"row 3.*irradiance_wm2.*oops"):
            load_weather(p)

    def test_bad_timestamp_names_row(self, tmp_path):
        p = write_csv(tmp_path, [
            "2024-06-01T10:00:00,800,25",
            "not-a-time,810,25",
        ])
        with pytest.raises(WeatherFormatError, match=r"row 3.*timestamp"):
            load_weather(p)

    def test_non_uniform_step_names_gap(self, tmp_path):
        p = write_csv(tmp_path, [
            "2024-06-01T10:00:00,800,25",
            "2024-06-01T10:10:00,810,25",
            "2024-06-01T10:25:00,820,25",
        ])
        with pytest.raises(WeatherFormatError, match=r"rows 3 and 4"):
            load_weather(p)

    def test_negative_irradiance_rejected(self, tmp_path):
        p = write_csv(tmp_path, [
            "2024-06-01T10:00:00,-5,25",
            "2024-06-01T10:10:00,810,25",
        ])
        with pytest.raises(WeatherFormatError, match="irradiance"):
            load_weather(p)

    def test_single_row_rejected(self, tmp_path):
        p = write_csv(tmp_path, ["2024-06-01T10:00:00,800,25"])
        with pytest.raises(WeatherFormatError, match="at least 2"):
            load_weather(p)

    @pytest.mark.skipif(not hasattr(time, "tzset"), reason="needs time.tzset")
    def test_naive_timestamps_are_utc_across_a_dst_change(self, tmp_path, monkeypatch):
        # Central European time, which springs forward at 02:00 on the last
        # Sunday of March: read as local time, 01:50 to 03:00 is 10 minutes
        monkeypatch.setenv("TZ", "CET-1CEST,M3.5.0,M10.5.0/3")
        time.tzset()
        try:
            p = write_csv(tmp_path, [
                f"2024-03-31T{h:02d}:{m:02d}:00,0,5" for h in range(1, 4) for m in range(0, 60, 10)
            ])
            w = load_weather(p)
        finally:
            monkeypatch.undo()
            time.tzset()
        assert len(w) == 18
        assert w.step_hours == pytest.approx(1.0 / 6.0)

    def test_aware_timestamps_are_read_by_their_offset(self, tmp_path):
        p = write_csv(tmp_path, [
            "2024-06-01T12:00:00+02:00,800,25",
            "2024-06-01T11:10:00+01:00,810,25",
            "2024-06-01T10:20:00+00:00,820,25",
        ])
        w = load_weather(p)
        assert len(w) == 3
        assert w.step_hours == pytest.approx(1.0 / 6.0)


class TestSynthWeather:
    def test_deterministic_per_seed(self):
        a = synth_weather(2, seed=11, variability=0.5)
        b = synth_weather(2, seed=11, variability=0.5)
        c = synth_weather(2, seed=12, variability=0.5)
        np.testing.assert_array_equal(a.irradiance, b.irradiance)
        np.testing.assert_array_equal(a.ambient_temp, b.ambient_temp)
        assert not np.array_equal(a.irradiance, c.irradiance)

    def test_shape_and_step(self):
        w = synth_weather(3, seed=1, variability=0.3)
        assert len(w) == 3 * 144
        assert w.step_hours == DEFAULT_STEP_HOURS
        assert w.total_hours == pytest.approx(72.0)

    def test_clear_sky_envelope(self):
        # variability 0 gives the pure half-sine day: zero at night, peak at noon
        w = synth_weather(1, seed=0, variability=0.0)
        hour = np.arange(144) / 6.0
        night = (hour < 6.0) | (hour > 18.0)
        assert np.all(w.irradiance[night] == 0.0)
        assert w.irradiance[72] == pytest.approx(1000.0)  # solar noon
        assert np.all(w.irradiance <= 1000.0)

    def test_clouds_only_remove_energy(self):
        clear = synth_weather(3, seed=7, variability=0.0)
        cloudy = synth_weather(3, seed=7, variability=0.8)
        assert np.all(cloudy.irradiance <= clear.irradiance + 1e-12)
        assert cloudy.irradiance.sum() < clear.irradiance.sum()
        assert cloudy.irradiance.max() > 300.0  # some sun still gets through

    def test_validates_arguments(self):
        with pytest.raises(ValueError, match="days"):
            synth_weather(0, seed=1, variability=0.5)
        with pytest.raises(ValueError, match="variability"):
            synth_weather(1, seed=1, variability=1.5)

    @settings(max_examples=25, deadline=None)
    @given(
        days=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=2**31),
        variability=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_output_always_in_physical_range(self, days, seed, variability):
        w = synth_weather(days, seed=seed, variability=variability)
        assert len(w) == days * 144
        assert np.all(w.irradiance >= 0.0)
        assert np.all(w.irradiance <= 1000.0 + 1e-9)
        assert np.all(np.isfinite(w.ambient_temp))
        assert w.active.all()


class TestFilterLowIrradiance:
    def test_masks_night_samples(self):
        w = synth_weather(1, seed=3, variability=0.2)
        f = filter_low_irradiance(w)
        assert f.n_active < len(f)
        assert np.all(f.irradiance[f.active] >= 2.0)
        assert np.all(~f.active[f.irradiance < 2.0])
        # the underlying samples are kept, only the mask narrows
        assert len(f) == len(w)
        np.testing.assert_array_equal(f.irradiance, w.irradiance)

    def test_idempotent(self):
        w = synth_weather(1, seed=3, variability=0.2)
        once = filter_low_irradiance(w)
        twice = filter_low_irradiance(once)
        np.testing.assert_array_equal(once.active, twice.active)

    def test_custom_threshold(self):
        w = synth_weather(1, seed=3, variability=0.0)
        f = filter_low_irradiance(w, threshold=500.0)
        assert np.all(w.irradiance[f.active] >= 500.0)

    def test_masks_compose(self):
        w = synth_weather(1, seed=3, variability=0.0)
        f = filter_low_irradiance(filter_low_irradiance(w, threshold=500.0))
        assert f.n_active == filter_low_irradiance(w, threshold=500.0).n_active


class TestWeatherSeries:
    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="sample 1"):
            WeatherSeries(1.0, np.array([1.0, np.nan]), np.array([20.0, 20.0]))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="equally long"):
            WeatherSeries(1.0, np.array([1.0, 2.0]), np.array([20.0]))
