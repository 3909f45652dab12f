"""AC-side PV power from weather: NOCT cell temperature, linear temperature
derate, constant inverter efficiency."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .weather import WeatherSeries


@dataclass(frozen=True)
class PvPlantSpec:
    """Plant-level PV parameters; defaults describe a 10 MW utility plant."""

    rated_power: float = 10000.0  # kW DC; the grid cap is constraints.grid_cap
    inverter_efficiency: float = 0.9
    temp_coefficient: float = -0.004  # 1/degC, power derate above reference
    noct: float = 45.0  # degC, nominal operating cell temperature
    reference_temp: float = 25.0  # degC
    reference_irradiance: float = 1000.0  # W/m^2

    def __post_init__(self) -> None:
        if self.rated_power <= 0:
            raise ValueError(f"rated_power must be > 0, got {self.rated_power}")
        if not 0.0 < self.inverter_efficiency <= 1.0:
            raise ValueError(
                f"inverter_efficiency must be in (0, 1], got {self.inverter_efficiency}"
            )
        if self.reference_irradiance <= 0:
            raise ValueError(
                f"reference_irradiance must be > 0, got {self.reference_irradiance}"
            )


@dataclass(frozen=True)
class PowerSeries:
    """Fixed-step power trace in kW with the optimization-horizon mask carried
    over from the weather it was derived from."""

    step_hours: float
    values: np.ndarray
    active: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if self.active is None:
            object.__setattr__(self, "active", np.ones(values.shape, dtype=bool))
        else:
            object.__setattr__(self, "active", np.asarray(self.active, dtype=bool))
        if self.step_hours <= 0:
            raise ValueError(f"step_hours must be > 0, got {self.step_hours}")
        if values.ndim != 1 or values.shape != self.active.shape:
            raise ValueError("values and active must be 1-d and equally long")

    def __len__(self) -> int:
        return len(self.values)

    @property
    def total_hours(self) -> float:
        return len(self) * self.step_hours

    def retained_indices(self) -> np.ndarray:
        """Original sample indices of the optimization horizon, in order."""
        return np.flatnonzero(self.active)

    def retained_values(self) -> np.ndarray:
        return self.values[self.active]

    def block_starts(self) -> np.ndarray:
        """Boolean array over retained steps; True where a retained block begins.

        A block begins at the first retained step and wherever the previous
        retained sample was not adjacent in the original trace. Ramp coupling
        is only meaningful inside a block.
        """
        idx = self.retained_indices()
        starts = np.ones(len(idx), dtype=bool)
        if len(idx) > 1:
            starts[1:] = np.diff(idx) > 1
        return starts


def pv_power(weather: WeatherSeries, plant: PvPlantSpec) -> PowerSeries:
    """Convert a weather series to AC-side plant output.

    Per sample: cell temperature rises over ambient by irradiance*(NOCT-20)/800,
    DC output scales linearly with irradiance and derates linearly with cell
    temperature above reference, clamps to [0, rated], and the inverter applies
    a constant efficiency.
    """
    g = weather.irradiance
    cell_temp = weather.ambient_temp + g * (plant.noct - 20.0) / 800.0
    dc = (
        plant.rated_power
        * (g / plant.reference_irradiance)
        * (1.0 + plant.temp_coefficient * (cell_temp - plant.reference_temp))
    )
    ac = np.clip(dc, 0.0, plant.rated_power) * plant.inverter_efficiency
    return PowerSeries(step_hours=weather.step_hours, values=ac, active=weather.active.copy())
