"""Run configuration: one JSON document plus bundled parameter presets.

Every numeric parameter of a study lives either in the config file or in a
preset shipped with the package, never in code. Validation failures always
name the offending field path so a bad config is quick to fix.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from importlib import resources
from pathlib import Path

from .economics import BatterySpec, DieselSpec, EconomicParams
from .errors import ConfigError
from .formulation import ConstraintConfig
from .pvmodel import PvPlantSpec

RUN_CASES = ("A", "B", "C", "D", "baseline")

BATTERY_PRESETS = ("table1_la", "table1_nas", "table1_liion", "table1_nicd")
DEFAULT_BATTERY_PRESET = "table1_nas"
DEFAULT_DIESEL_PRESET = "table3_diesel"

#: keys that may carry the string "inf" in JSON, which has no infinity literal
_INF_KEYS = ("fluctuation_limit", "grid_cap")


@dataclass(frozen=True)
class SyntheticWeatherSpec:
    """Parameters for the generated irradiance trace."""

    days: int = 3
    seed: int = 7
    variability: float = 0.8

    def __post_init__(self) -> None:
        for name in ("days", "seed"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.days < 1:
            raise ValueError(f"days must be >= 1, got {self.days}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        v = self.variability
        if not (isinstance(v, (int, float)) and not isinstance(v, bool) and 0.0 <= v <= 1.0):
            raise ValueError(f"variability must be in [0, 1], got {v!r}")


@dataclass(frozen=True)
class RunConfig:
    weather_file: Path | None
    weather_synth: SyntheticWeatherSpec | None
    plant: PvPlantSpec
    battery: BatterySpec
    battery_candidates: tuple[BatterySpec, ...]
    diesel: DieselSpec
    econ: EconomicParams
    constraints: ConstraintConfig
    cases: tuple[str, ...]
    output_dir: Path


def load_preset(name: str) -> dict:
    """Read one bundled ``<name>.preset`` JSON document."""
    ref = resources.files("pvsmooth").joinpath(f"presets/{name}.preset")
    try:
        text = ref.read_text(encoding="utf-8")
    except FileNotFoundError:
        known = ", ".join(sorted(BATTERY_PRESETS + (DEFAULT_DIESEL_PRESET,)))
        raise ConfigError(f"unknown preset {name!r}; bundled presets: {known}") from None
    return json.loads(text)


def _coerce_inf(data: dict) -> dict:
    out = dict(data)
    for key in _INF_KEYS:
        value = out.get(key)
        if isinstance(value, str):
            if value.lower() in ("inf", "infinity", "+inf"):
                out[key] = math.inf
            else:
                raise ConfigError(f"{key}: expected a number or \"inf\", got {value!r}")
    return out


def _section(cls, data, path: str):
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected an object, got {type(data).__name__}")
    types = {f.name: f.type for f in fields(cls)}
    for key, value in data.items():
        if key not in types:
            raise ConfigError(f"{path}.{key}: unknown field")
        # JSON true/false would otherwise pass as the numbers 1 and 0
        if isinstance(value, bool) and types[key] not in ("bool", bool):
            raise ConfigError(f"{path}: {key} must be {types[key]}, not a boolean")
        # JSON reads NaN, Infinity and 1e999; only a limit may be infinite
        if isinstance(value, float) and not (
            math.isfinite(value) or (key in _INF_KEYS and value == math.inf)
        ):
            raise ConfigError(f"{path}: {key} must be a finite number, got {value}")
    try:
        return cls(**data)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _spec(cls, data, path: str):
    """A section given inline as an object at ``path``, or as the name of a
    bundled preset."""
    if isinstance(data, str):
        return _section(cls, load_preset(data), f"preset {data}")
    return _section(cls, data, path)


def load_run_config(path: str | Path) -> RunConfig:
    """Parse and validate a run configuration file, UTF-8 with or without a byte-order mark."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8-sig"))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except UnicodeDecodeError as exc:
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise ConfigError(
            f"{path}: non-UTF-8 byte 0x{exc.object[exc.start]:02x} on line {line}"
        ) from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be an object")

    known_top = {
        "weather", "plant", "battery", "battery_candidates", "diesel",
        "econ", "constraints", "cases", "output_dir",
    }
    for key in raw:
        if key not in known_top:
            raise ConfigError(f"{key}: unknown field")

    weather = raw.get("weather", {"synthetic": {}})
    if not isinstance(weather, dict) or len(weather) != 1:
        raise ConfigError('weather: expected exactly one of {"file": ...} or {"synthetic": ...}')
    weather_file = None
    weather_synth = None
    if "file" in weather:
        # paths are taken relative to the config file so a config directory
        # can be moved as a unit
        weather_file = (path.parent / str(weather["file"])).resolve()
    elif "synthetic" in weather:
        weather_synth = _section(SyntheticWeatherSpec, weather["synthetic"], "weather.synthetic")
    else:
        raise ConfigError(f"weather.{next(iter(weather))}: unknown weather source")

    plant = _section(PvPlantSpec, raw.get("plant", {}), "plant")
    battery = _spec(BatterySpec, raw.get("battery", DEFAULT_BATTERY_PRESET), "battery")

    candidates_raw = raw.get("battery_candidates", list(BATTERY_PRESETS))
    if not isinstance(candidates_raw, list) or not candidates_raw:
        raise ConfigError("battery_candidates: expected a non-empty list")
    candidates = tuple(
        _spec(BatterySpec, item, f"battery_candidates[{k}]")
        for k, item in enumerate(candidates_raw)
    )

    diesel = _spec(DieselSpec, raw.get("diesel", DEFAULT_DIESEL_PRESET), "diesel")

    econ = _section(EconomicParams, raw.get("econ", {}), "econ")
    constraints = _section(
        ConstraintConfig, _coerce_inf(raw.get("constraints", {})), "constraints"
    )

    cases_raw = raw.get("cases", ["A", "B", "C", "D", "baseline"])
    if not isinstance(cases_raw, list) or not cases_raw:
        raise ConfigError("cases: at least one case must be selected")
    seen = []
    for c in cases_raw:
        if c not in RUN_CASES:
            raise ConfigError(f"cases: unknown case {c!r}; valid: {', '.join(RUN_CASES)}")
        if c not in seen:
            seen.append(c)
    cases = tuple(seen)

    output_dir = raw.get("output_dir", "out")
    if not isinstance(output_dir, str):
        raise ConfigError(f"output_dir: expected a path string, got {output_dir!r}")
    output_dir = Path(output_dir)
    if not output_dir.is_absolute():
        output_dir = path.parent / output_dir

    return RunConfig(
        weather_file=weather_file,
        weather_synth=weather_synth,
        plant=plant,
        battery=battery,
        battery_candidates=candidates,
        diesel=diesel,
        econ=econ,
        constraints=constraints,
        cases=cases,
        output_dir=output_dir,
    )
