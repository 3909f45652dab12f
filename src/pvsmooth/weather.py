"""Weather input series: CSV ingestion, a seeded synthetic generator and
low-irradiance masking.

A :class:`WeatherSeries` keeps every sample it was built from; masking a
sample (night, heavy overcast) clears its ``active`` flag instead of deleting
it, so downstream consumers can still tell which retained samples were
consecutive in real time.
"""

from __future__ import annotations

import csv
import operator
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

    @property
    def total_hours(self) -> float:
        """Wall-clock span covered by the trace, nights included."""
        return len(self) * self.step_hours

    @property
    def n_active(self) -> int:
        return int(np.count_nonzero(self.active))


def load_weather(path: str | Path) -> WeatherSeries:
    """Read a measured weather trace from a CSV file.

    Expected header: ``timestamp,irradiance_wm2,temp_c`` with ISO-8601
    timestamps at a uniform spacing, which becomes the series' step. A
    timestamp without an offset is read as UTC, so the step does not depend
    on the machine's time zone or its daylight saving changes. Blank rows are
    skipped; the first faulty row is named with its first fault.
    """
    path = Path(path)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise WeatherFormatError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if tuple(header) != WEATHER_CSV_COLUMNS:
            raise WeatherFormatError(
                f"{path}: expected header {','.join(WEATHER_CSV_COLUMNS)}, got {','.join(header)}"
            )
        records = list(reader)
    # a row's line is its place among the records, the header being line 1
    blank = np.fromiter(map(operator.not_, map(str.strip, map("".join, records))), dtype=bool,
                        count=len(records))
    lineno = np.flatnonzero(~blank) + 2
    rows = list(compress(records, ~blank))

    # each check runs on whole columns, up to the first row that is not
    # three fields wide; a fault is (row, the check's place in the order a
    # row is checked, message), so the least is the one to report
    width = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
    faults: list[tuple[int, int, str]] = []
    if np.any(width != 3):
        k = int(np.argmax(width != 3))
        faults.append((k, 0, f"expected 3 fields, got {width[k]}"))
    checked = rows[: faults[0][0]] if faults else rows
    columns = [list(map(operator.itemgetter(j), checked)) for j in range(3)]
    stripped = [list(map(str.strip, cells)) for cells in columns]
    for stage, (col_name, values) in enumerate(zip(WEATHER_CSV_COLUMNS, stripped), start=1):
        missing = np.fromiter(map(operator.not_, values), dtype=bool, count=len(values))
        if missing.any():
            message = f"missing value in column '{col_name}'"
            faults.append((int(np.argmax(missing)), stage, message))
    times, irr, temp = (
        _converted(convert, stripped[j], columns[j], j, faults)
        for j, convert in enumerate((datetime.fromisoformat, float, float))
    )
    if faults:
        k, _, message = min(faults)
        raise WeatherFormatError(f"{path}: row {lineno[k]}: {message}")

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
            f"{path}: non-uniform timestep between rows {k + 2} and {k + 3}: "
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


def _converted(convert, values: list[str], cells: list[str], j: int, faults: list) -> list:
    """``convert`` of each of ``values``, the stripped ``cells`` of column
    ``j``. If it rejects one, the first such fault, which a row meets after
    its missing-value checks, is added to ``faults`` and the list is empty."""
    try:
        return list(map(convert, values))
    except ValueError:
        for k, value in enumerate(values):
            try:
                convert(value)
            except ValueError:
                col_name = WEATHER_CSV_COLUMNS[j]
                faults.append((k, 4 + j, f"bad value in column '{col_name}': {cells[k]!r}"))
                return []
        raise


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


def filter_low_irradiance(
    weather: WeatherSeries, threshold: float = LOW_IRRADIANCE_WM2
) -> WeatherSeries:
    """Mask samples below ``threshold`` W/m^2 out of the optimization horizon.

    Samples are marked inactive, not deleted, so block structure (contiguous
    runs of retained samples) survives for the ramp constraints. Idempotent.
    """
    if threshold < 0:
        raise ValueError(f"threshold must be >= 0, got {threshold}")
    return WeatherSeries(
        step_hours=weather.step_hours,
        irradiance=weather.irradiance,
        ambient_temp=weather.ambient_temp,
        active=weather.active & (weather.irradiance >= threshold),
    )
