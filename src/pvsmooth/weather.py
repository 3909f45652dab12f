"""Weather input series: CSV ingestion, a seeded synthetic generator and
low-irradiance masking. The CSV table reader also reads dispatch files.

A :class:`WeatherSeries` keeps every sample it was built from; masking a
sample (night, heavy overcast) clears its ``active`` flag instead of deleting
it, so downstream consumers can still tell which retained samples were
consecutive in real time.
"""

from __future__ import annotations

import csv
import math
import operator
from collections.abc import Callable
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from itertools import compress, repeat
from pathlib import Path

import numpy as np

from .errors import WeatherFormatError

WEATHER_CSV_COLUMNS = ("timestamp", "irradiance_wm2", "temp_c")

#: Default sampling step: ten minutes, expressed in hours.
DEFAULT_STEP_HOURS = 1.0 / 6.0

#: Clear-sky irradiance at solar noon in the synthetic trace.
PEAK_IRRADIANCE_WM2 = 1000.0

#: Samples below this irradiance are dropped from the optimization horizon.
LOW_IRRADIANCE_WM2 = 2.0

_EPOCH = datetime(1970, 1, 1)


@dataclass(frozen=True)
class WeatherSeries:
    """Uniformly sampled irradiance/temperature trace.

    ``active`` marks the samples that belong to the optimization horizon;
    it starts all-true and is narrowed by :func:`filter_low_irradiance`.
    """

    step_hours: float
    irradiance: np.ndarray
    ambient_temp: np.ndarray
    active: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        irr = np.asarray(self.irradiance, dtype=float)
        temp = np.asarray(self.ambient_temp, dtype=float)
        object.__setattr__(self, "irradiance", irr)
        object.__setattr__(self, "ambient_temp", temp)
        if self.active is None:
            object.__setattr__(self, "active", np.ones(irr.shape, dtype=bool))
        else:
            object.__setattr__(self, "active", np.asarray(self.active, dtype=bool))
        if self.step_hours <= 0:
            raise ValueError(f"step_hours must be > 0, got {self.step_hours}")
        if irr.ndim != 1 or irr.shape != temp.shape or irr.shape != self.active.shape:
            raise ValueError("irradiance, ambient_temp and active must be 1-d and equally long")
        if len(irr) < 2:
            raise ValueError(f"a weather series needs at least 2 samples, got {len(irr)}")
        if not np.all(np.isfinite(irr)) or np.any(irr < 0):
            bad = int(np.flatnonzero(~np.isfinite(irr) | (irr < 0))[0])
            raise ValueError(f"irradiance must be finite and >= 0 (sample {bad}: {irr[bad]})")
        if not np.all(np.isfinite(temp)):
            bad = int(np.flatnonzero(~np.isfinite(temp))[0])
            raise ValueError(f"ambient_temp must be finite (sample {bad}: {temp[bad]})")

    def __len__(self) -> int:
        return len(self.irradiance)


def load_weather(path: str | Path) -> WeatherSeries:
    """Read a measured weather trace from a CSV file.

    Expected header: ``timestamp,irradiance_wm2,temp_c`` with ISO-8601
    timestamps at a uniform spacing, which becomes the series' step. A
    timestamp without an offset is read as UTC, so the step does not depend
    on the machine's time zone or its daylight saving changes. Blank rows are
    skipped; a fault names its row by its line in the file.
    """
    path = Path(path)
    (times, irr, temp), lines = read_table(
        path, WEATHER_CSV_COLUMNS, (datetime.fromisoformat, float, float), WeatherFormatError
    )
    if len(times) < 2:
        raise WeatherFormatError(f"{path}: need at least 2 data rows, got {len(times)}")
    steps = np.diff(_utc_seconds(times))
    step = steps[0]
    if step <= 0:
        raise WeatherFormatError(f"{path}: timestamps must be strictly increasing")
    off = np.flatnonzero(np.abs(steps - step) > 1.0)  # 1 s slack for clock jitter
    if off.size:
        k = int(off[0])
        raise WeatherFormatError(
            f"{path}: non-uniform timestep between rows {lines[k]} and {lines[k + 1]}: "
            f"expected {step:.0f} s, got {steps[k]:.0f} s"
        )
    try:
        return WeatherSeries(
            step_hours=step / 3600.0,
            irradiance=np.asarray(irr),
            ambient_temp=np.asarray(temp),
        )
    except ValueError as exc:
        raise WeatherFormatError(f"{path}: {exc}") from None


def read_table(
    path: str | Path,
    columns: tuple[str, ...],
    converters: tuple[Callable[[str], object], ...],
    error: type[Exception],
) -> tuple[list[list], np.ndarray]:
    """Read a CSV table with the header ``columns``.

    Returns the values of each column, each stripped cell passed through the
    column's converter, and the file line of each row, the header being line
    1. Rows with no text are skipped. An empty file, another header or a
    faulty row raises ``error``; a faulty row is the first one, named by its
    line with its first fault as :func:`_row_fault` finds it.
    """
    # a byte that is not UTF-8 reads as a lone surrogate, which no converter
    # accepts, so the row pass names it; a leading byte-order mark, as in
    # Excel's "CSV UTF-8", is dropped
    with open(path, newline="", encoding="utf-8-sig", errors="surrogateescape") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise error(f"{path}: empty file")
        header = [h.strip() for h in header]
        if tuple(header) != columns:
            raise error(f"{path}: expected header {','.join(columns)}, got {','.join(header)}")
        records = list(reader)
    text = np.fromiter(map(bool, map(str.strip, map("".join, records))), dtype=bool,
                       count=len(records))
    lines = np.flatnonzero(text) + 2
    rows = list(compress(records, text))
    try:
        if set(map(len, rows)) - {len(columns)}:
            raise ValueError("a row of another width")
        values = [
            list(map(convert, map(str.strip, map(operator.itemgetter(j), rows))))
            for j, convert in enumerate(converters)
        ]
        # float reads "nan" and "inf"; a value that is not finite is a fault
        if not all(np.isfinite(v).all() for v, c in zip(values, converters) if c is float):
            raise ValueError("a value that is not finite")
    except ValueError:
        # the columns are converted whole; only a fault takes the rows one by one
        for line, row in zip(lines, rows):
            fault = _row_fault(row, columns, converters)
            if fault:
                raise error(f"{path}: row {line}: {fault}") from None
        raise
    return values, lines


def _row_fault(
    row: list[str], columns: tuple[str, ...], converters: tuple[Callable[[str], object], ...]
) -> str | None:
    """The first fault of ``row``: its width, then a missing cell, then a
    cell that holds a byte that is not UTF-8, that its column's converter
    rejects or that reads as a float that is not finite."""
    if len(row) != len(columns):
        return f"expected {len(columns)} fields, got {len(row)}"
    for name, cell in zip(columns, row):
        if not cell.strip():
            return f"missing value in column '{name}'"
    for name, convert, cell in zip(columns, converters, row):
        escaped = [ord(ch) - 0xDC00 for ch in cell if "\udc80" <= ch <= "\udcff"]
        if escaped:
            return f"non-UTF-8 byte 0x{escaped[0]:02x} in column '{name}'"
        try:
            value = convert(cell.strip())
        except ValueError:
            value = math.nan
        if isinstance(value, float) and not math.isfinite(value):
            return f"bad value in column '{name}': {cell!r}"
    return None


def _utc_seconds(times: list[datetime]) -> np.ndarray:
    """POSIX seconds of each time: a naive one read as UTC, an aware one by
    its offset."""
    aware = np.fromiter(map(operator.is_not, map(datetime.utcoffset, times), repeat(None)),
                        dtype=bool, count=len(times))
    out = np.empty(len(times))
    for part, epoch in ((~aware, _EPOCH), (aware, _EPOCH.replace(tzinfo=timezone.utc))):
        since = map(operator.sub, compress(times, part), repeat(epoch))
        out[part] = np.fromiter(map(timedelta.total_seconds, since), dtype=float,
                                count=int(np.count_nonzero(part)))
    return out


def synth_weather(days: int, seed: int, variability: float) -> WeatherSeries:
    """Generate a deterministic synthetic trace at ``DEFAULT_STEP_HOURS``.

    Clear-sky envelope: half-sine irradiance between 06:00 and 18:00 peaking
    at ``PEAK_IRRADIANCE_WM2`` at solar noon. ``variability`` in [0, 1]
    scales seeded cloud occlusions: each cloud cuts irradiance instantly at
    onset and clears back over a few samples, which is also what produces
    the sharp downward / gentler upward power steps the optimizer has to
    smooth. ``variability = 0`` returns the pure envelope.
    """
    if days < 1:
        raise ValueError(f"days must be >= 1, got {days}")
    if not 0.0 <= variability <= 1.0:
        raise ValueError(f"variability must be in [0, 1], got {variability}")
    per_day = round(24.0 / DEFAULT_STEP_HOURS)
    n = days * per_day
    k = np.arange(n)
    hour = (k % per_day) * DEFAULT_STEP_HOURS
    daylight = (hour >= 6.0) & (hour <= 18.0)
    envelope = np.where(daylight, np.sin(np.pi * (hour - 6.0) / 12.0), 0.0)
    envelope = PEAK_IRRADIANCE_WM2 * np.clip(envelope, 0.0, None)

    factor = np.ones(n)
    rng = np.random.default_rng(seed)
    if variability > 0.0:
        n_events = int(rng.poisson(6.0 * variability * days))
        for _ in range(n_events):
            onset = int(rng.integers(0, n))
            duration = int(rng.integers(2, 13))  # 20 min .. 2 h of occlusion
            clear_len = int(rng.integers(1, 5))  # 10 .. 40 min to clear
            depth = variability * float(rng.uniform(0.55, 0.95))
            occluded = 1.0 - depth
            for j in range(onset, min(onset + duration, n)):
                factor[j] = min(factor[j], occluded)
            for step, j in enumerate(range(onset + duration, min(onset + duration + clear_len, n))):
                ramp = occluded + (1.0 - occluded) * (step + 1) / (clear_len + 1)
                factor[j] = min(factor[j], ramp)
    irradiance = envelope * factor

    # Ambient temperature: daily sinusoid peaking mid-afternoon plus a small
    # seeded wobble. Drawn even at variability=0 so the irradiance stream
    # above stays aligned with the seed regardless of temperature use.
    wobble = rng.normal(0.0, 0.4, size=n) * variability
    ambient = 16.0 + 9.0 * np.sin(2.0 * np.pi * (hour - 9.0) / 24.0) + wobble

    return WeatherSeries(
        step_hours=DEFAULT_STEP_HOURS,
        irradiance=irradiance,
        ambient_temp=ambient,
    )


def filter_low_irradiance(weather: WeatherSeries) -> WeatherSeries:
    """Mask samples below ``LOW_IRRADIANCE_WM2`` out of the optimization horizon.

    Samples are marked inactive, not deleted, so block structure (contiguous
    runs of retained samples) survives for the ramp constraints. Idempotent.
    """
    return WeatherSeries(
        step_hours=weather.step_hours,
        irradiance=weather.irradiance,
        ambient_temp=weather.ambient_temp,
        active=weather.active & (weather.irradiance >= LOW_IRRADIANCE_WM2),
    )
