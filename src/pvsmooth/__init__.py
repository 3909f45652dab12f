"""PV output smoothing: sizing and dispatch by linear programming.

Co-optimizes battery power/energy rating, diesel backup capacity and
sub-MPP curtailment against grid revenue for a utility-scale PV plant.
"""

from .config import RunConfig, SyntheticWeatherSpec, load_preset, load_run_config
from .economics import (
    BatterySpec,
    DieselSpec,
    EconomicParams,
    PresentWorthFactors,
    compute_factors,
)
from .errors import (
    ConfigError,
    LpDefinitionError,
    MpsFormatError,
    PvSmoothError,
    SolveStatusError,
    WeatherFormatError,
)
from .formulation import (
    CaseFormulation,
    ConstraintConfig,
    DispatchSolution,
    build_case,
    extract_solution,
)
from .pvmodel import PowerSeries, PvPlantSpec, pv_power
from .validation import check_dispatch, compare_cases
from .weather import WeatherSeries, filter_low_irradiance, load_weather, synth_weather

__version__ = "0.1.0"

__all__ = [
    "BatterySpec",
    "CaseFormulation",
    "ConfigError",
    "ConstraintConfig",
    "DieselSpec",
    "DispatchSolution",
    "EconomicParams",
    "LpDefinitionError",
    "MpsFormatError",
    "PowerSeries",
    "PresentWorthFactors",
    "PvPlantSpec",
    "PvSmoothError",
    "RunConfig",
    "SolveStatusError",
    "SyntheticWeatherSpec",
    "WeatherFormatError",
    "WeatherSeries",
    "build_case",
    "check_dispatch",
    "compare_cases",
    "compute_factors",
    "extract_solution",
    "filter_low_irradiance",
    "load_preset",
    "load_run_config",
    "load_weather",
    "pv_power",
    "synth_weather",
    "__version__",
]
