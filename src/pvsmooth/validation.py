"""Independent verification of solved dispatches and the case comparison.

Nothing in this module touches the LP machinery: constraints are recomputed
from the raw series with plain numpy. Disagreement between these checks and
the solver is how formulation or solver bugs surface.
"""

from __future__ import annotations

import math

import numpy as np

from .economics import BatterySpec, DieselSpec
from .formulation import DIESEL_CASES, HOURS_PER_YEAR, ConstraintConfig, DispatchSolution
from .pvmodel import PowerSeries

RESIDUAL_TOL = 1e-6


def _max_at(values: np.ndarray) -> tuple[float, int | None]:
    if len(values) == 0:
        return 0.0, None
    k = int(np.argmax(values))
    return float(values[k]), k


def check_dispatch(
    sol: DispatchSolution,
    pv: PowerSeries,
    cfg: ConstraintConfig,
    batt: BatterySpec,
    diesel: DieselSpec | None = None,
) -> dict:
    """Recompute every dispatch constraint from the series themselves.

    Returns the document ``validate`` prints: per constraint family, the
    worst residual in kW or kWh under ``residuals``, and under ``worst_step``
    its position within the dispatch series (not the original trace index),
    or None when the family has no per-step structure or does not apply;
    the ``tolerance``; and ``passed``, whether every residual is within it.
    """
    n = len(sol.p_grid)
    for name in ("p_batt", "e_batt", "p_curt", "p_diesel"):
        if len(getattr(sol, name)) != n:
            raise ValueError(f"{name} has {len(getattr(sol, name))} steps, expected {n}")
    if len(sol.steps) != n:
        raise ValueError(f"steps has {len(sol.steps)} entries, expected {n}")

    p_pv = pv.values[sol.steps]
    h = pv.step_hours

    residuals: dict = {}
    worst: dict = {}

    balance = np.abs(sol.p_grid - (p_pv + sol.p_batt - sol.p_curt + sol.p_diesel))
    residuals["balance"], worst["balance"] = _max_at(balance)

    # ramp applies between consecutive retained steps of the same trace block
    adjacent = np.diff(sol.steps) == 1
    jumps = np.abs(np.diff(sol.p_grid))[adjacent]
    if math.isfinite(cfg.fluctuation_limit) and len(jumps):
        excess = np.maximum(jumps - cfg.fluctuation_limit, 0.0)
        val, k = _max_at(excess)
        residuals["ramp"] = val
        worst["ramp"] = None if k is None else int(np.flatnonzero(adjacent)[k]) + 1
    else:
        residuals["ramp"], worst["ramp"] = 0.0, None

    soc = np.abs(sol.e_batt[1:] - sol.e_batt[:-1] + h * sol.p_batt[:-1])
    val, k = _max_at(soc)
    residuals["soc_recursion"] = val
    worst["soc_recursion"] = None if k is None else k + 1

    band = np.maximum(
        batt.soc_min_fraction * sol.e_batt_max - sol.e_batt,
        sol.e_batt - sol.e_batt_max,
    )
    residuals["soc_bounds"], worst["soc_bounds"] = _max_at(np.maximum(band, 0.0))

    power = np.abs(sol.p_batt) - sol.p_batt_max
    power = np.maximum(power, -sol.p_curt)  # curtailment must be >= 0
    power = np.maximum(power, sol.p_curt - p_pv)  # and below available PV
    power = np.maximum(power, -sol.p_diesel)
    power = np.maximum(power, sol.p_diesel - sol.p_diesel_max)
    sizing_neg = -min(sol.p_batt_max, sol.e_batt_max, sol.p_diesel_max, 0.0)
    val, k = _max_at(np.maximum(power, 0.0))
    residuals["power_bounds"] = max(val, sizing_neg)
    worst["power_bounds"] = k

    grid = np.maximum(sol.p_grid - cfg.grid_cap, -sol.p_grid)
    residuals["grid_cap"], worst["grid_cap"] = _max_at(np.maximum(grid, 0.0))

    if diesel is not None:
        cap = (diesel.annual_fuel_cap_liters / diesel.fuel_per_kwh) * (
            pv.total_hours / HOURS_PER_YEAR
        )
        residuals["fuel_cap"] = max(float(h * sol.p_diesel.sum() - cap), 0.0)
    else:
        residuals["fuel_cap"] = 0.0
    worst["fuel_cap"] = None

    return {
        "residuals": residuals,
        "worst_step": worst,
        "tolerance": RESIDUAL_TOL,
        "passed": all(v <= RESIDUAL_TOL for v in residuals.values()),
    }


NESTING_REL_TOL = 1e-6

#: case pairs whose feasible sets nest: the first cannot out-earn the second
NESTED_PAIRS = (("A", "B"), ("A", "C"), ("B", "D"), ("C", "D"))


def baseline_ratio(amount: float, base: float) -> float | None:
    """``amount`` per unit of the baseline's magnitude, or None when the
    baseline is exactly 0, where no ratio is defined."""
    return amount / abs(base) if base != 0.0 else None


def compare_cases(
    results: dict[str, DispatchSolution],
    baseline: DispatchSolution,
    emission_charge: float = 0.0,
) -> dict:
    """Summarize solved cases against the no-smoothing baseline.

    Returns the document ``run`` writes as ``comparison.json``, unrounded:
    ``baseline_net_benefit`` and, per case, its ``net_benefit``, the
    ``decrement_vs_baseline`` (the fraction of the baseline revenue lost,
    or None when the baseline earns exactly 0, where no fraction is defined)
    and its battery power, battery energy and diesel ratings. It holds only
    what the optimum of each case defines; the largest curtailment of the
    optimal point the solver reached depends on the pivot path, so
    ``solver.json`` carries it.

    Raises on a nesting violation (a case with a strictly larger feasible
    set earning strictly less beyond tolerance): that is a solver or
    formulation bug, not a modelling outcome. ``emission_charge`` is the
    constant lump every diesel case pays even with the diesel idle; it is
    added back before a diesel case is compared with a case without diesel,
    because nesting is a claim about feasible sets, not about that constant.
    """
    base = baseline.net_benefit
    for lo, hi in NESTED_PAIRS:
        if lo in results and hi in results:
            lo_v = results[lo].net_benefit
            hi_v = results[hi].net_benefit
            if hi in DIESEL_CASES and lo not in DIESEL_CASES:
                hi_v += emission_charge
            if lo_v > hi_v + NESTING_REL_TOL * (1.0 + abs(hi_v)):
                raise ValueError(
                    f"nesting violation: case {lo} earns {lo_v:.6g} > case {hi} {hi_v:.6g}"
                )
    return {
        "baseline_net_benefit": base,
        "cases": {
            c: {
                "net_benefit": r.net_benefit,
                "decrement_vs_baseline": baseline_ratio(base - r.net_benefit, base),
                "battery_power_kw": r.p_batt_max,
                "battery_energy_kwh": r.e_batt_max,
                "diesel_power_kw": r.p_diesel_max,
            }
            for c, r in results.items()
        },
    }
