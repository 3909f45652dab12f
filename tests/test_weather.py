import tempfile
import time
from datetime import datetime
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pvsmooth.cli import DISPATCH_COLUMNS, read_dispatch_csv
from pvsmooth.errors import ConfigError, WeatherFormatError
from pvsmooth.weather import (
    DEFAULT_STEP_HOURS,
    WEATHER_CSV_COLUMNS,
    WeatherSeries,
    filter_low_irradiance,
    load_weather,
    read_table,
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
        assert len(w) * w.step_hours == pytest.approx(0.5)

    def test_byte_order_mark_is_dropped(self, tmp_path):
        # Excel's "CSV UTF-8" starts the file with a UTF-8 byte-order mark
        p = write_csv(tmp_path, [
            "2024-06-01T10:00:00,800.5,25.0",
            "2024-06-01T10:10:00,820.0,25.4",
        ])
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + p.read_bytes())
        plain, marked = load_weather(p), load_weather(bom)
        assert marked.step_hours == plain.step_hours
        assert marked.irradiance.tolist() == plain.irradiance.tolist()
        assert marked.ambient_temp.tolist() == plain.ambient_temp.tolist()

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

    # float reads these; a trace value that is not finite is a bad value of
    # its row, not a fault of a 0-based sample
    @pytest.mark.parametrize("row, column", [
        ("2024-06-01T10:20:00,nan,25", "irradiance_wm2"),
        ("2024-06-01T10:20:00,800,-Infinity", "temp_c"),
    ])
    def test_non_finite_value_names_row_and_column(self, tmp_path, row, column):
        p = write_csv(tmp_path, [
            "2024-06-01T10:00:00,800,25",
            "2024-06-01T10:10:00,810,25",
            row,
        ])
        cell = row.split(",")[WEATHER_CSV_COLUMNS.index(column)]
        with pytest.raises(WeatherFormatError) as err:
            load_weather(p)
        assert str(err.value) == f"{p}: row 4: bad value in column '{column}': '{cell}'"

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

    def test_gap_after_blank_rows_names_file_lines(self, tmp_path):
        p = tmp_path / "weather.csv"
        p.write_text(
            "timestamp,irradiance_wm2,temp_c\n"
            "2024-06-01T10:00:00,800,25\n"
            "\n"
            "\n"
            "2024-06-01T10:10:00,810,25\n"
            "2024-06-01T10:25:00,820,25\n"
        )
        with pytest.raises(WeatherFormatError, match=r"between rows 5 and 6: expected 600 s, got 900 s"):
            load_weather(p)

    @pytest.mark.parametrize("rows, message", [
        ([b"2024-06-01T10:10:00,8\xe900,25"], "row 3: non-UTF-8 byte 0xe9 in column 'irradiance_wm2'"),
        ([b"2024-06-01T10:10:00,800,2\xff"], "row 3: non-UTF-8 byte 0xff in column 'temp_c'"),
        # an earlier row's fault comes first
        ([b"2024-06-01T10:10:00,oops,25", b"2024-06-01T10:20:00,8\xe900,25"],
         "row 3: bad value in column 'irradiance_wm2': 'oops'"),
    ], ids=["irradiance", "temperature", "earlier-fault"])
    def test_non_utf8_byte_names_row_and_column(self, tmp_path, rows, message):
        p = tmp_path / "weather.csv"
        p.write_bytes(b"\n".join([
            b"timestamp,irradiance_wm2,temp_c", b"2024-06-01T10:00:00,800,25",
            *rows, b"2024-06-01T10:30:00,800,25", b"",
        ]))
        with pytest.raises(WeatherFormatError) as exc:
            load_weather(p)
        assert str(exc.value) == f"{p}: {message}"

    def test_empty_file_is_named(self, tmp_path):
        p = tmp_path / "weather.csv"
        p.write_text("")
        with pytest.raises(WeatherFormatError) as exc:
            load_weather(p)
        assert str(exc.value) == f"{p}: empty file"

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


# per table: the public reader, its columns, the converters it reads them
# with, its exception type, and a good and a bad cell for each column
TABLES = {
    "weather": (
        load_weather, WEATHER_CSV_COLUMNS, (datetime.fromisoformat, float, float),
        WeatherFormatError, ["2024-06-01T10:00:00", "800.5", "25"], ["10 am", "n/a", "1e"],
    ),
    "dispatch": (
        read_dispatch_csv, DISPATCH_COLUMNS, (int,) + (float,) * 6,
        ConfigError, ["3"] + ["1.25"] * 6, ["1.5"] + ["x"] * 6,
    ),
}


@st.composite
def tables(draw, width, good, bad):
    """Rows of cells: mostly good, with blank rows, missing and bad cells and
    rows of another width mixed in."""
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["good", "good", "blank", "cells", "cells", "width"]))
        if kind == "blank":
            rows.append(draw(st.lists(st.sampled_from(["", " "]), max_size=3)))
            continue
        if kind == "width":
            n = draw(st.integers(1, width + 2).filter(lambda n: n != width))
            rows.append([good[j % width] for j in range(n)])
            continue
        row = [" " + cell if draw(st.booleans()) else cell for cell in good]
        if kind == "cells":
            row = [draw(st.sampled_from([cell, cell, "", "  ", bad[j]])) for j, cell in enumerate(row)]
        rows.append(row)
    return rows


class TestReadTable:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), name=st.sampled_from(sorted(TABLES)))
    def test_first_faulty_line_and_fault(self, data, name):
        reader, columns, converters, error, good, bad = TABLES[name]
        rows = data.draw(tables(len(columns), good, bad))
        # the reference: a plain loop over the file's lines
        expected = None
        lines, values = [], [[] for _ in columns]
        for line, row in enumerate(rows, start=2):
            if not "".join(row).strip():
                continue
            if len(row) != len(columns):
                expected = f"row {line}: expected {len(columns)} fields, got {len(row)}"
            else:
                missing = [c for c, cell in zip(columns, row) if not cell.strip()]
                if missing:
                    expected = f"row {line}: missing value in column '{missing[0]}'"
            for j, (col, convert, cell) in enumerate(zip(columns, converters, row)):
                if expected:
                    break
                try:
                    values[j].append(convert(cell.strip()))
                except ValueError:
                    expected = f"row {line}: bad value in column '{col}': {cell!r}"
            if expected:
                break
            lines.append(line)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / f"{name}.csv"
            path.write_text("\n".join([",".join(columns)] + [",".join(r) for r in rows]) + "\n")
            if expected:
                with pytest.raises(error) as exc:
                    reader(path)
                assert str(exc.value) == f"{path}: {expected}"
            else:
                got, got_lines = read_table(path, columns, converters, error)
                assert got == values
                assert got_lines.tolist() == lines

    def test_header_cells_are_stripped(self, tmp_path):
        p = write_csv(tmp_path, ["1,2,3"], header=" timestamp , irradiance_wm2,temp_c")
        values, lines = read_table(p, WEATHER_CSV_COLUMNS, (int, int, int), ValueError)
        assert values == [[1], [2], [3]]
        assert lines.tolist() == [2]


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
        assert len(w) * w.step_hours == pytest.approx(72.0)

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
        assert np.count_nonzero(f.active) < len(f)
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


class TestWeatherSeries:
    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="sample 1"):
            WeatherSeries(1.0, np.array([1.0, np.nan]), np.array([20.0, 20.0]))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="equally long"):
            WeatherSeries(1.0, np.array([1.0, 2.0]), np.array([20.0]))
