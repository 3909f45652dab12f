"""Dispatch/sizing LP assembly for the four smoothing strategies.

Case A uses the battery alone, B adds sub-MPP curtailment, C adds a diesel
generator instead, D combines all three. The builder returns the LP plus
the column block of each variable family for decoding; the decision symbols
per retained step are the grid injection P_G, battery power P_b (positive =
discharge), battery energy E_b, and, depending on the case, curtailed power
P_c and diesel power P_D, together with the sizing variables P_bMAX, E_bMAX,
P_DMAX.

Sign conventions: P_b > 0 discharges (adds to the grid injection and drains
stored energy); the stored-energy recursion over one step of h hours is
E_b(i) = E_b(i-1) - h * P_b(i-1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .economics import BatterySpec, DieselSpec, EconomicParams, compute_factors
from .errors import ConfigError, SolveStatusError
from .lp import LpProblem, LpSolution, build_problem
from .pvmodel import PowerSeries

HOURS_PER_YEAR = 8760.0

CASE_IDS = ("A", "B", "C", "D")

#: step-to-step grid injection change allowed by the smoothing requirement
DEFAULT_FLUCTUATION_KW = 150.0


@dataclass(frozen=True)
class ConstraintConfig:
    """Dispatch-level constraint settings shared by all cases.

    ``annualization`` scales horizon energy to annual energy; ``None`` means
    8760 / trace-hours, computed per build. ``initial_soc_mode`` is either
    ``free-bounded`` (first-step stored energy is a decision variable inside
    the SOC band) or ``fixed-fraction`` (pinned to ``initial_soc_fraction``
    of the energy rating). ``undiscounted_diesel_costs`` switches the
    diesel-case battery terms to raw capital costs and leaves recurring fuel
    cost undiscounted instead of applying the present-worth factors.
    ``om_full_horizon`` charges O&M over the whole study horizon instead of
    one equipment lifetime.
    """

    fluctuation_limit: float = DEFAULT_FLUCTUATION_KW
    grid_cap: float = 10000.0
    initial_soc_mode: str = "free-bounded"
    initial_soc_fraction: float | None = None
    cyclic_soc: bool = True
    annualization: float | None = None
    undiscounted_diesel_costs: bool = False
    om_full_horizon: bool = False

    def __post_init__(self) -> None:
        if not self.fluctuation_limit > 0:
            raise ValueError(f"fluctuation_limit must be > 0, got {self.fluctuation_limit}")
        if not self.grid_cap > 0:
            raise ValueError(f"grid_cap must be > 0, got {self.grid_cap}")
        if self.initial_soc_mode not in ("free-bounded", "fixed-fraction"):
            raise ValueError(
                "initial_soc_mode must be 'free-bounded' or 'fixed-fraction', "
                f"got {self.initial_soc_mode!r}"
            )
        if self.initial_soc_mode == "fixed-fraction":
            r = self.initial_soc_fraction
            if r is None or not 0.0 <= r <= 1.0:
                raise ValueError(
                    f"fixed-fraction mode needs initial_soc_fraction in [0, 1], got {r}"
                )
        elif self.initial_soc_fraction is not None:
            raise ValueError("initial_soc_fraction is only meaningful in fixed-fraction mode")
        if self.annualization is not None and not self.annualization > 0:
            raise ValueError(f"annualization must be > 0, got {self.annualization}")


@dataclass(frozen=True)
class CaseFormulation:
    """An assembled case: the LP, the column lookup and decode metadata.

    ``columns`` maps each variable family (``p_grid``, ``p_batt``,
    ``e_batt``, ``p_curt``, ``p_diesel``, ``p_batt_max``, ``e_batt_max``,
    ``p_diesel_max``) the case has to its contiguous block of LP columns;
    per-step families hold one column per retained step.
    """

    case_id: str
    problem: LpProblem
    columns: dict[str, slice]
    steps: np.ndarray  # original trace indices of the retained horizon
    p_pv: np.ndarray  # kW at the retained steps
    step_hours: float
    fuel_cap_kwh: float  # 0 when the case has no diesel

    @property
    def has_curtailment(self) -> bool:
        return self.case_id in ("B", "D")

    @property
    def has_diesel(self) -> bool:
        return self.case_id in ("C", "D")


@dataclass(frozen=True)
class DispatchSolution:
    """Decoded optimal dispatch and sizing for one case."""

    steps: np.ndarray
    p_pv: np.ndarray
    p_grid: np.ndarray
    p_batt: np.ndarray
    e_batt: np.ndarray
    p_curt: np.ndarray  # empty in cases without curtailment
    p_diesel: np.ndarray  # empty in cases without diesel
    p_batt_max: float
    e_batt_max: float
    p_diesel_max: float
    net_benefit: float
    diesel_energy: float  # kWh over the horizon


def build_case(
    case_id: str,
    pv: PowerSeries,
    batt: BatterySpec,
    econ: EconomicParams,
    cfg: ConstraintConfig,
    diesel: DieselSpec | None = None,
) -> CaseFormulation:
    """Assemble the LP of case ``case_id``; diesel is required for C and D.

    The time step h is the trace's own, ``pv.step_hours``.
    """
    if case_id not in CASE_IDS:
        raise ValueError(f"unknown case {case_id!r}; expected one of {CASE_IDS}")
    has_curt = case_id in ("B", "D")
    has_diesel = case_id in ("C", "D")
    if has_diesel and diesel is None:
        raise ValueError(f"case {case_id} needs a diesel spec")

    steps = pv.retained_indices()
    if len(steps) < 2:
        raise ConfigError(
            f"weather: the optimization horizon needs at least 2 retained steps, got {len(steps)}"
        )
    p_pv = pv.retained_values()
    starts = pv.block_starts()
    n = len(steps)
    h = pv.step_hours
    annualization = cfg.annualization
    if annualization is None:
        annualization = HOURS_PER_YEAR / pv.total_hours

    factors = compute_factors(
        batt, econ, diesel if has_diesel else None, om_full_horizon=cfg.om_full_horizon
    )
    rev = econ.energy_price * h * annualization * factors.revenue_multiplier

    # column layout: P_G, P_b, E_b, [P_c], [P_D], P_bMAX, E_bMAX, [P_DMAX],
    # one contiguous block per family
    columns: dict[str, slice] = {}
    bounds: list[tuple[float, float]] = []
    names: list[str] = []
    objective: list[float] = []
    inf = math.inf

    def add_block(family, col_names, col_bounds, cost) -> int:
        j0 = len(bounds)
        columns[family] = slice(j0, j0 + len(col_names))
        bounds.extend(col_bounds)
        names.extend(col_names)
        objective.extend([cost] * len(col_names))
        return j0

    def per_step(prefix):
        return [f"{prefix}{i + 1:06d}" for i in range(n)]

    g0 = add_block("p_grid", per_step("PG"), [(0.0, cfg.grid_cap)] * n, rev)
    b0 = add_block("p_batt", per_step("PB"), [(-inf, inf)] * n, 0.0)
    e0 = add_block("e_batt", per_step("EB"), [(0.0, inf)] * n, 0.0)
    if has_curt:
        c0 = add_block("p_curt", per_step("PC"), [(0.0, float(v)) for v in p_pv], 0.0)
    if has_diesel:
        # recurring fuel cost per kW of diesel output over one step
        fuel = diesel.fuel_per_kwh * diesel.fuel_price * h * annualization
        if not cfg.undiscounted_diesel_costs:
            fuel *= factors.revenue_multiplier
        d0 = add_block("p_diesel", per_step("PD"), [(0.0, inf)] * n, -fuel)

    if cfg.undiscounted_diesel_costs:
        beta_term = batt.capital_power / batt.eff_power
        gamma_term = batt.capital_energy / batt.eff_energy
    else:
        beta_term = factors.beta / batt.eff_power
        gamma_term = factors.gamma / batt.eff_energy
    j_pbmax = add_block("p_batt_max", ["PBMAX"], [(0.0, inf)], -beta_term)
    j_ebmax = add_block("e_batt_max", ["EBMAX"], [(0.0, inf)], -gamma_term)
    if has_diesel:
        j_pdmax = add_block(
            "p_diesel_max", ["PDMAX"], [(0.0, inf)], -factors.sigma / diesel.efficiency
        )

    rows: list[tuple[list[tuple[int, float]], str, float]] = []
    row_names: list[str] = []

    def add_row(coeffs, rel, rhs, name) -> None:
        rows.append((coeffs, rel, rhs))
        row_names.append(name)

    # power balance at each step: P_G - P_b + P_c - P_D = P_PV
    for i in range(n):
        coeffs = [(g0 + i, 1.0), (b0 + i, -1.0)]
        if has_curt:
            coeffs.append((c0 + i, 1.0))
        if has_diesel:
            coeffs.append((d0 + i, -1.0))
        add_row(coeffs, "=", float(p_pv[i]), f"BAL{i + 1:05d}")

    # fluctuation band on the grid injection, skipped across trace gaps
    if math.isfinite(cfg.fluctuation_limit):
        lim = cfg.fluctuation_limit
        for i in range(1, n):
            if starts[i]:
                continue
            add_row([(g0 + i, 1.0), (g0 + i - 1, -1.0)], "<=", lim, f"RUP{i + 1:05d}")
            add_row([(g0 + i, -1.0), (g0 + i - 1, 1.0)], "<=", lim, f"RDN{i + 1:05d}")

    # stored-energy recursion; deliberately chained across trace gaps so the
    # battery carries its state through the night
    for i in range(1, n):
        add_row(
            [(e0 + i, 1.0), (e0 + i - 1, -1.0), (b0 + i - 1, h)], "=", 0.0, f"SOC{i + 1:05d}"
        )

    # battery power within the rating, both directions
    for i in range(n):
        add_row([(b0 + i, 1.0), (j_pbmax, -1.0)], "<=", 0.0, f"PBU{i + 1:05d}")
        add_row([(b0 + i, -1.0), (j_pbmax, -1.0)], "<=", 0.0, f"PBL{i + 1:05d}")

    # stored energy within [X_min * rating, rating]
    x_min = batt.soc_min_fraction
    for i in range(n):
        add_row([(e0 + i, 1.0), (j_ebmax, -1.0)], "<=", 0.0, f"EBU{i + 1:05d}")
        add_row([(e0 + i, -1.0), (j_ebmax, x_min)], "<=", 0.0, f"EBL{i + 1:05d}")

    fuel_cap_kwh = 0.0
    if has_diesel:
        for i in range(n):
            add_row([(d0 + i, 1.0), (j_pdmax, -1.0)], "<=", 0.0, f"DCP{i + 1:05d}")
        fuel_cap_kwh = (
            diesel.annual_fuel_cap_liters / diesel.fuel_per_kwh
        ) * (pv.total_hours / HOURS_PER_YEAR)
        add_row([(d0 + i, h) for i in range(n)], "<=", fuel_cap_kwh, "FUELCAP")

    if cfg.initial_soc_mode == "fixed-fraction":
        add_row(
            [(e0, 1.0), (j_ebmax, -float(cfg.initial_soc_fraction))], "=", 0.0, "INITSOC"
        )
    if cfg.cyclic_soc:
        # end at least as full as the start: no free stored energy
        add_row([(e0, 1.0), (e0 + n - 1, -1.0)], "<=", 0.0, "CYCSOC")

    offset = -diesel.emission_charge_total if has_diesel else 0.0
    problem = build_problem(
        "maximize",
        bounds,
        rows,
        objective,
        offset=offset,
        col_names=names,
        row_names=row_names,
        name=f"CASE{case_id}",
    )
    return CaseFormulation(
        case_id=case_id,
        problem=problem,
        columns=columns,
        steps=steps,
        p_pv=p_pv,
        step_hours=h,
        fuel_cap_kwh=fuel_cap_kwh,
    )


def extract_solution(formulation: CaseFormulation, solution: LpSolution) -> DispatchSolution:
    """Decode an optimal LP solution into per-step series and sizing.

    Refuses anything but an optimal solution: a dispatch decoded from an
    infeasible or truncated solve would be silently wrong.
    """
    if solution.status != "optimal":
        raise SolveStatusError(
            f"cannot extract a dispatch from a solve with status {solution.status!r}"
        )
    cols = formulation.columns
    x = solution.x

    def series(name: str) -> np.ndarray:
        # + 0.0 normalizes the -0.0 a variable parked at bound can carry
        return x[cols[name]] + 0.0

    def scalar(name: str) -> float:
        return float(x[cols[name].start]) + 0.0

    p_curt = series("p_curt") if formulation.has_curtailment else np.zeros(0)
    p_diesel = series("p_diesel") if formulation.has_diesel else np.zeros(0)
    diesel_energy = float(formulation.step_hours * p_diesel.sum()) if len(p_diesel) else 0.0
    return DispatchSolution(
        steps=formulation.steps.copy(),
        p_pv=formulation.p_pv.copy(),
        p_grid=series("p_grid"),
        p_batt=series("p_batt"),
        e_batt=series("e_batt"),
        p_curt=p_curt,
        p_diesel=p_diesel,
        p_batt_max=scalar("p_batt_max"),
        e_batt_max=scalar("e_batt_max"),
        p_diesel_max=scalar("p_diesel_max") if formulation.has_diesel else 0.0,
        net_benefit=solution.objective_value,
        diesel_energy=diesel_energy,
    )
