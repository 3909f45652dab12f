"""Present-worth cost factors for battery and diesel capacity over a
multi-year study horizon.

Each factor folds together the discounted purchase stream (initial unit plus
replacements), an operating-and-maintenance annuity, and the salvage credits
at each end of life. Revenue earned every year is collapsed the same way into
a single discount multiplier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class BatterySpec:
    """Battery cost/performance parameters (per-kW and per-kWh sides)."""

    name: str
    capital_power: float  # $/kW
    capital_energy: float  # $/kWh
    om_power: float  # $/kW-yr
    om_energy: float  # $/kWh-yr
    salvage_power: float  # $/kW
    salvage_energy: float  # $/kWh
    lifetime_years: float
    eff_power: float = 0.85
    eff_energy: float = 0.85
    soc_min_fraction: float = 0.10

    def __post_init__(self) -> None:
        for fname in ("capital_power", "capital_energy", "om_power", "om_energy",
                      "salvage_power", "salvage_energy"):
            if getattr(self, fname) < 0:
                raise ValueError(f"{fname} must be >= 0, got {getattr(self, fname)}")
        if self.salvage_power > self.capital_power:
            raise ValueError("salvage_power must not exceed capital_power")
        if self.salvage_energy > self.capital_energy:
            raise ValueError("salvage_energy must not exceed capital_energy")
        if not 0.0 < self.eff_power <= 1.0 or not 0.0 < self.eff_energy <= 1.0:
            raise ValueError("battery efficiencies must be in (0, 1]")
        if not 0.0 <= self.soc_min_fraction < 1.0:
            raise ValueError(f"soc_min_fraction must be in [0, 1), got {self.soc_min_fraction}")
        if self.lifetime_years < 1:
            raise ValueError(f"lifetime_years must be >= 1, got {self.lifetime_years}")


@dataclass(frozen=True)
class DieselSpec:
    """Diesel generator cost, fuel and emission parameters."""

    capital: float = 280.0  # $/kW
    om: float = 80.0  # $/kW-yr
    salvage: float = 28.0  # $/kW
    lifetime_hours: float = 20000.0
    lifetime_years_effective: float = 4.5  # used wherever the formulas need years
    fuel_per_kwh: float = 0.5  # L/kWh
    fuel_price: float = 1.1  # $/L
    emission_charge_total: float = 6000.0  # $, lumped over the study period
    efficiency: float = 1.0
    annual_fuel_cap_liters: float = 50000.0

    def __post_init__(self) -> None:
        for fname in ("capital", "om", "salvage"):
            if getattr(self, fname) < 0:
                raise ValueError(f"{fname} must be >= 0, got {getattr(self, fname)}")
        if self.salvage > self.capital:
            raise ValueError("salvage must not exceed capital")
        if self.fuel_per_kwh <= 0:
            raise ValueError(f"fuel_per_kwh must be > 0, got {self.fuel_per_kwh}")
        if not 0.0 < self.efficiency <= 1.0:
            raise ValueError(f"efficiency must be in (0, 1], got {self.efficiency}")
        if self.lifetime_years_effective <= 0:
            raise ValueError("lifetime_years_effective must be > 0")
        if self.annual_fuel_cap_liters < 0:
            raise ValueError("annual_fuel_cap_liters must be >= 0")


@dataclass(frozen=True)
class EconomicParams:
    """Market and study-horizon parameters."""

    energy_price: float = 0.45  # $/kWh sold
    discount_rate: float = 0.05  # per year; the value is a modelling choice
    horizon_years: int = 18

    def __post_init__(self) -> None:
        if self.energy_price < 0:
            raise ValueError(f"energy_price must be >= 0, got {self.energy_price}")
        if self.discount_rate < 0:
            raise ValueError(f"discount_rate must be >= 0, got {self.discount_rate}")
        if self.horizon_years < 1:
            raise ValueError(f"horizon_years must be >= 1, got {self.horizon_years}")


@dataclass(frozen=True)
class PresentWorthFactors:
    """Per-kW / per-kWh lifetime cost factors plus the revenue discount sum."""

    beta: float  # $/kW of battery power rating
    gamma: float  # $/kWh of battery energy rating
    sigma: float  # $/kW of diesel rating
    revenue_multiplier: float


def replacement_count(horizon_years: float, lifetime_years: float) -> int:
    """Number of unit purchases over the horizon, the year-0 unit included."""
    if horizon_years <= 0 or lifetime_years <= 0:
        raise ValueError("horizon_years and lifetime_years must be > 0")
    return math.ceil(horizon_years / lifetime_years - 1e-9)


def annuity_factor(n_years: float, rate: float) -> float:
    """Present worth of n unit annual payments; the rate->0 limit is n."""
    if rate == 0.0:
        return n_years
    growth = (1.0 + rate) ** n_years
    return (growth - 1.0) / (rate * growth)


def _present_worth(
    capital: float, om: float, salvage: float, lifetime: float, econ: EconomicParams
) -> float:
    n = replacement_count(econ.horizon_years, lifetime)
    i = np.arange(1, n + 1, dtype=float)
    discount = 1.0 + econ.discount_rate
    capital_term = capital * np.sum(discount ** (-(i - 1.0) * lifetime))
    salvage_term = salvage * np.sum(discount ** (-i * lifetime))
    om_term = om * annuity_factor(lifetime, econ.discount_rate)
    return float(capital_term + om_term - salvage_term)


def compute_factors(
    battery: BatterySpec, econ: EconomicParams, diesel: DieselSpec | None = None
) -> PresentWorthFactors:
    """Evaluate every present-worth factor for one parameter set."""
    b = battery
    return PresentWorthFactors(
        beta=_present_worth(b.capital_power, b.om_power, b.salvage_power, b.lifetime_years, econ),
        gamma=_present_worth(
            b.capital_energy, b.om_energy, b.salvage_energy, b.lifetime_years, econ
        ),
        # per kW of diesel rating over its effective lifetime in years
        sigma=0.0 if diesel is None else _present_worth(
            diesel.capital, diesel.om, diesel.salvage, diesel.lifetime_years_effective, econ
        ),
        revenue_multiplier=annuity_factor(econ.horizon_years, econ.discount_rate),
    )
