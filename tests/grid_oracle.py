"""Brute-force grid-search oracle for tiny dispatch instances.

Independent reference for the case LPs: battery power, curtailment and
diesel power are enumerated per step on a kW grid, and the sizing follows in
closed form, so nothing here touches the LP machinery or ``build_case``.
The cost terms are recomputed from ``compute_factors``, the one piece of
code shared with the formulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from pvsmooth.economics import BatterySpec, DieselSpec, EconomicParams, compute_factors
from pvsmooth.formulation import CURTAILMENT_CASES, DIESEL_CASES, HOURS_PER_YEAR, ConstraintConfig
from pvsmooth.pvmodel import PowerSeries


@dataclass(frozen=True)
class OracleResult:
    """Best feasible discretized dispatch found by exhaustive search."""

    objective: float
    p_batt: np.ndarray
    p_curt: np.ndarray
    p_diesel: np.ndarray
    p_grid: np.ndarray
    p_batt_max: float
    e_batt_max: float
    p_diesel_max: float


MAX_ORACLE_STEPS = 4
MAX_ORACLE_COMBOS = 60_000_000


def _minimal_energy_rating(d_cum: np.ndarray, x_min: float, r: float | None) -> np.ndarray:
    """Cost-minimal E_bMAX for fixed cumulative discharge trajectories.

    ``d_cum`` has shape (n_steps, ...); entry k is the energy discharged
    before step k (row 0 is zero). ``r`` is the pinned initial fraction of
    E_bMAX, or None for a free start; infeasible pinned combinations come
    back as +inf.
    """
    d_max = np.max(d_cum, axis=0)
    d_min = np.min(d_cum, axis=0)
    if r is None:
        return (d_max - d_min) / (1.0 - x_min)
    need = np.zeros_like(d_max)
    # initial energy pinned at r * E: D_k <= (r - x_min) E and D_k >= -(1 - r) E
    with np.errstate(divide="ignore", invalid="ignore"):
        if r - x_min > 0:
            need = np.maximum(need, d_max / (r - x_min))
        else:
            need = np.where(d_max > 1e-12, np.inf, need)
        if 1.0 - r > 0:
            need = np.maximum(need, -d_min / (1.0 - r))
        else:
            need = np.where(d_min < -1e-12, np.inf, need)
    return need


def _cost_terms(
    pv: PowerSeries,
    has_diesel: bool,
    batt: BatterySpec,
    econ: EconomicParams,
    cfg: ConstraintConfig,
    diesel: DieselSpec | None,
) -> tuple[float, float, float, float, float]:
    """Objective coefficients per unit of each decision: revenue per kW of
    grid injection over one step, then the costs per kW of battery power
    rating, per kWh of battery energy rating, per kW of diesel rating and
    per kW of diesel output over one step (the last two 0 without diesel)."""
    h = pv.step_hours
    annualization = cfg.annualization
    if annualization is None:
        annualization = HOURS_PER_YEAR / pv.total_hours
    factors = compute_factors(batt, econ, diesel if has_diesel else None)
    rev = econ.energy_price * h * annualization * factors.revenue_multiplier
    beta_t = factors.beta / batt.eff_power
    gamma_t = factors.gamma / batt.eff_energy
    sigma_t = 0.0
    fuel_t = 0.0
    if has_diesel:
        sigma_t = factors.sigma / diesel.efficiency
        fuel_t = diesel.fuel_per_kwh * diesel.fuel_price * h * annualization
        fuel_t *= factors.revenue_multiplier
    return rev, beta_t, gamma_t, sigma_t, fuel_t


def brute_force_optimum(
    pv: PowerSeries,
    case_id: str,
    batt: BatterySpec,
    econ: EconomicParams,
    cfg: ConstraintConfig,
    diesel: DieselSpec | None = None,
    *,
    power_step_kw: float = 10.0,
    p_batt_window: tuple[float, float] | None = None,
    p_diesel_limit_kw: float | None = None,
) -> OracleResult | None:
    """Exhaustively optimize a tiny instance on a kW grid.

    Battery power, curtailment and diesel power are enumerated per step on a
    ``power_step_kw`` grid; for each dispatch the sizing variables are set to
    their cost-minimal values in closed form (max |P_b|, max P_D, and the
    smallest energy rating containing the stored-energy excursion), so no
    search dimension runs over energy. Returns None when no enumerated point
    is feasible. ``p_batt_window`` bounds the battery search grid; callers
    asserting optimality gaps must pick it wide enough to cover the LP
    optimum.
    """
    if power_step_kw <= 0:
        raise ValueError("grid steps must be > 0")
    steps = pv.retained_indices()
    p_pv = pv.retained_values()
    n = len(steps)
    if n > MAX_ORACLE_STEPS:
        raise ValueError(f"oracle horizon limited to {MAX_ORACLE_STEPS} steps, got {n}")
    has_curt = case_id in CURTAILMENT_CASES
    has_diesel = case_id in DIESEL_CASES
    if has_diesel and diesel is None:
        raise ValueError(f"case {case_id} needs a diesel spec")

    h = pv.step_hours
    s = power_step_kw
    if p_batt_window is None:
        w = s * math.ceil((float(np.max(p_pv)) + cfg.fluctuation_limit) / s)
        p_batt_window = (-w, w)

    def grid(lo: float, hi: float) -> np.ndarray:
        k0 = math.ceil(lo / s - 1e-9)
        k1 = math.floor(hi / s + 1e-9)
        return s * np.arange(k0, k1 + 1)

    axes = [grid(p_batt_window[0], p_batt_window[1]) for _ in range(n)]
    n_b = n
    if has_curt:
        axes += [grid(0.0, float(p_pv[i])) for i in range(n)]
    if has_diesel:
        d_hi = p_diesel_limit_kw
        if d_hi is None:
            d_hi = float(np.max(p_pv)) + cfg.fluctuation_limit
        axes += [grid(0.0, d_hi) for _ in range(n)]

    sizes = [len(a) for a in axes]
    combos = math.prod(sizes)
    if combos > MAX_ORACLE_COMBOS:
        raise ValueError(f"{combos} grid combinations exceed the enumeration guard")

    rev, beta_t, gamma_t, sigma_t, fuel_t = _cost_terms(pv, has_diesel, batt, econ, cfg, diesel)
    emission = 0.0
    fuel_cap = math.inf
    if has_diesel:
        emission = diesel.emission_charge_total
        fuel_cap = (diesel.annual_fuel_cap_liters / diesel.fuel_per_kwh) * (
            pv.total_hours / HOURS_PER_YEAR
        )

    adjacent = np.diff(steps) == 1
    lim = cfg.fluctuation_limit

    # iterate a python loop over enough leading axes to keep each broadcast
    # block under ~1e6 points, then vectorize the trailing axes
    split = len(axes)
    block = 1
    while split > 0 and block * sizes[split - 1] <= 1_000_000:
        split -= 1
        block *= sizes[split]
    inner_nd = len(axes) - split
    shaped = [
        a.reshape((1,) * (k - split) + (-1,) + (1,) * (len(axes) - k - 1))
        for k, a in enumerate(axes)
        if k >= split
    ]
    best_val = -math.inf
    best_idx: tuple | None = None

    for lead in np.ndindex(*sizes[:split]):
        all_axes = [
            np.asarray(axes[k][lead[k]]).reshape((1,) * inner_nd) for k in range(split)
        ]
        all_axes.extend(shaped)
        bat = all_axes[:n_b]
        cur = all_axes[n_b : n_b + n] if has_curt else [0.0] * n
        dsl = all_axes[-n:] if has_diesel else [0.0] * n

        p_g = [p_pv[i] + bat[i] - cur[i] + dsl[i] for i in range(n)]
        feas = np.ones((1,) * inner_nd, dtype=bool)
        for i in range(n):
            feas = feas & (p_g[i] >= -1e-9) & (p_g[i] <= cfg.grid_cap + 1e-9)
        if math.isfinite(lim):
            for i in range(1, n):
                if adjacent[i - 1]:
                    feas = feas & (np.abs(p_g[i] - p_g[i - 1]) <= lim + 1e-9)
        if has_diesel and math.isfinite(fuel_cap):
            d_sum = sum(dsl)
            feas = feas & (h * d_sum <= fuel_cap + 1e-9)

        # cumulative discharged energy before each step
        d_cum = [np.zeros((1,) * inner_nd)]
        for i in range(1, n):
            d_cum.append(d_cum[-1] + h * bat[i - 1])
        d_stack = np.stack([np.broadcast_to(d, np.broadcast_shapes(*[x.shape for x in d_cum]))
                            for d in d_cum])
        # end at least as full as the start
        feas = feas & (d_stack[-1] <= 1e-9)
        e_need = _minimal_energy_rating(
            d_stack, batt.soc_min_fraction, cfg.initial_soc_fraction
        )
        feas = feas & np.isfinite(e_need)

        if not np.any(feas):
            continue

        p_b_abs = np.abs(bat[0])
        for b in bat[1:]:
            p_b_abs = np.maximum(p_b_abs, np.abs(b))
        p_b_abs = np.broadcast_to(p_b_abs, feas.shape)
        obj = rev * sum(np.broadcast_to(g, feas.shape).astype(float) for g in p_g)
        obj = obj - beta_t * p_b_abs - gamma_t * np.broadcast_to(e_need, feas.shape)
        if has_diesel:
            d_max = np.broadcast_to(dsl[0], feas.shape).astype(float)
            for d in dsl[1:]:
                d_max = np.maximum(d_max, d)
            d_sum = sum(np.broadcast_to(d, feas.shape).astype(float) for d in dsl)
            # fuel_t is already a per-kW-of-P_D cost (the h inside covers energy)
            obj = obj - sigma_t * d_max - fuel_t * d_sum - emission
        obj = np.where(feas, obj, -math.inf)
        k_best = int(np.argmax(obj))
        if obj.flat[k_best] > best_val:
            best_val = float(obj.flat[k_best])
            best_idx = tuple(lead) + np.unravel_index(k_best, feas.shape)

    if best_idx is None:
        return None

    picks = [float(axes[k][best_idx[k]]) for k in range(len(axes))]
    b = np.array(picks[:n_b])
    c = np.array(picks[n_b : n_b + n]) if has_curt else np.zeros(0)
    d = np.array(picks[-n:]) if has_diesel else np.zeros(0)
    g = p_pv + b - (c if len(c) else 0.0) + (d if len(d) else 0.0)
    d_cum = np.concatenate([[0.0], h * np.cumsum(b[:-1])])
    e_max = float(
        _minimal_energy_rating(
            d_cum.reshape(-1, 1), batt.soc_min_fraction, cfg.initial_soc_fraction
        )[0]
    )
    return OracleResult(
        objective=best_val,
        p_batt=b,
        p_curt=c,
        p_diesel=d,
        p_grid=g,
        p_batt_max=float(np.max(np.abs(b))) if len(b) else 0.0,
        e_batt_max=e_max,
        p_diesel_max=float(np.max(d)) if len(d) else 0.0,
    )


def oracle_gap_bound(
    pv: PowerSeries,
    case_id: str,
    batt: BatterySpec,
    econ: EconomicParams,
    cfg: ConstraintConfig,
    diesel: DieselSpec | None = None,
    *,
    power_step_kw: float = 10.0,
) -> float:
    """Worst objective loss from snapping an optimal dispatch to the grid.

    Moving every enumerated coordinate by at most half a grid step moves each
    P_G by at most half a step per decision stream, the power rating by half
    a step, the stored-energy excursion by n*h*step, and the diesel terms
    accordingly; summing the products with the objective coefficients bounds
    the LP-minus-oracle gap whenever the snapped point stays feasible.
    """
    n = int(np.count_nonzero(pv.active))
    h = pv.step_hours
    s = power_step_kw
    has_diesel = case_id in DIESEL_CASES
    rev, beta_t, gamma_t, sigma_t, fuel_t = _cost_terms(pv, has_diesel, batt, econ, cfg, diesel)
    streams = 1 + (case_id in CURTAILMENT_CASES) + has_diesel
    bound = rev * n * streams * s / 2.0
    bound += beta_t * s / 2.0
    bound += gamma_t * n * h * s / (1.0 - batt.soc_min_fraction)
    if has_diesel:
        bound += sigma_t * s / 2.0
        bound += fuel_t * n * s / 2.0
    return bound
