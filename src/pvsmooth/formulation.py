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
from .lp import CsrRows, LpProblem, LpSolution, build_problem, objective_value
from .pvmodel import PowerSeries

HOURS_PER_YEAR = 8760.0

CASE_IDS = ("A", "B", "C", "D")
#: the cases that may curtail PV below its maximum power point
CURTAILMENT_CASES = ("B", "D")
#: the cases with a diesel generator
DIESEL_CASES = ("C", "D")

#: step-to-step grid injection change allowed by the smoothing requirement
DEFAULT_FLUCTUATION_KW = 150.0

#: a rating or diesel energy no further than this from zero, in kW or kWh,
#: decodes as exactly zero: the simplex leaves roundoff of up to about 2e-12
#: on a rating that the optimum sets to zero, and validation allows 1e-6
ZERO_RATING = 1e-9


@dataclass(frozen=True)
class ConstraintConfig:
    """Dispatch-level constraint settings shared by all cases.

    ``annualization`` scales horizon energy to annual energy; ``None`` means
    8760 / trace-hours, computed per build. ``initial_soc_fraction`` pins
    the first-step stored energy to that fraction of the energy rating;
    ``None`` leaves it a decision variable inside the SOC band.
    """

    fluctuation_limit: float = DEFAULT_FLUCTUATION_KW
    grid_cap: float = 10000.0
    initial_soc_fraction: float | None = None
    annualization: float | None = None

    def __post_init__(self) -> None:
        if not self.fluctuation_limit > 0:
            raise ValueError(f"fluctuation_limit must be > 0, got {self.fluctuation_limit}")
        if not self.grid_cap > 0:
            raise ValueError(f"grid_cap must be > 0, got {self.grid_cap}")
        r = self.initial_soc_fraction
        if r is not None and not (isinstance(r, (int, float)) and 0.0 <= r <= 1.0):
            raise ValueError(f"initial_soc_fraction must be in [0, 1] or null, got {r!r}")
        a = self.annualization
        if a is not None and not (isinstance(a, (int, float)) and math.isfinite(a) and a > 0):
            raise ValueError(f"annualization must be a finite number > 0, got {a!r}")


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


@dataclass(frozen=True)
class DispatchSolution:
    """Decoded optimal dispatch and sizing for one case."""

    steps: np.ndarray
    p_pv: np.ndarray
    p_grid: np.ndarray
    p_batt: np.ndarray
    e_batt: np.ndarray
    p_curt: np.ndarray  # zeros in cases without curtailment
    p_diesel: np.ndarray  # zeros in cases without diesel
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
    has_curt = case_id in CURTAILMENT_CASES
    has_diesel = case_id in DIESEL_CASES
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

    factors = compute_factors(batt, econ, diesel if has_diesel else None)
    rev = econ.energy_price * h * annualization * factors.revenue_multiplier

    # column layout: P_G, P_b, E_b, [P_c], [P_D], P_bMAX, E_bMAX, [P_DMAX],
    # one contiguous block per family
    columns: dict[str, slice] = {}
    names: list[str] = []
    boxes: list[np.ndarray] = []
    costs: list[np.ndarray] = []
    inf = math.inf

    def add_block(family, col_names, lower, upper, cost) -> int:
        j0 = len(names)
        columns[family] = slice(j0, j0 + len(col_names))
        names.extend(col_names)
        box = np.empty((len(col_names), 2))
        box[:, 0], box[:, 1] = lower, upper
        boxes.append(box)
        costs.append(np.full(len(col_names), cost, dtype=float))
        return j0

    col_labels = [f"{i:06d}" for i in range(1, n + 1)]

    def per_step(prefix):
        return [prefix + label for label in col_labels]

    g0 = add_block("p_grid", per_step("PG"), 0.0, cfg.grid_cap, rev)
    b0 = add_block("p_batt", per_step("PB"), -inf, inf, 0.0)
    e0 = add_block("e_batt", per_step("EB"), 0.0, inf, 0.0)
    if has_curt:
        c0 = add_block("p_curt", per_step("PC"), 0.0, p_pv, 0.0)
    if has_diesel:
        # recurring fuel cost per kW of diesel output over one step
        fuel = diesel.fuel_per_kwh * diesel.fuel_price * h * annualization
        fuel *= factors.revenue_multiplier
        d0 = add_block("p_diesel", per_step("PD"), 0.0, inf, -fuel)

    j_pbmax = add_block("p_batt_max", ["PBMAX"], 0.0, inf, -factors.beta / batt.eff_power)
    j_ebmax = add_block("e_batt_max", ["EBMAX"], 0.0, inf, -factors.gamma / batt.eff_energy)
    if has_diesel:
        j_pdmax = add_block(
            "p_diesel_max", ["PDMAX"], 0.0, inf, -factors.sigma / diesel.efficiency
        )

    # each row family is one block of rows with equally many coefficients;
    # a row's coefficients keep the order written here, because A @ x sums
    # in stored order
    row_names: list[str] = []
    relations: list[str] = []
    rhs: list[np.ndarray] = []
    counts: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    vals: list[np.ndarray] = []

    def add_rows(block_names, relation, block_rhs, block_cols, block_vals) -> None:
        """Rows ``block_names`` with coefficient columns ``block_cols``, an
        integer array of shape (rows, coefficients), and values broadcast to it."""
        r = len(block_names)
        row_names.extend(block_names)
        relations.extend([relation] * r)
        rhs.append(np.broadcast_to(np.asarray(block_rhs, dtype=float), (r,)))
        counts.append(np.full(r, block_cols.shape[1]))
        cols.append(block_cols.ravel())
        vals.append(np.broadcast_to(np.asarray(block_vals, dtype=float), block_cols.shape).ravel())

    def stack(*terms) -> np.ndarray:
        """Per-row arrays or scalars as the columns of one array."""
        return np.column_stack(np.broadcast_arrays(*terms))

    row_labels = [f"{i:05d}" for i in range(1, n + 1)]

    def named(prefixes, steps):
        # one row per step and prefix; an upper and a lower row interleave
        return [prefix + row_labels[k] for k in steps for prefix in prefixes]

    i = np.arange(n)
    later = i[1:]
    twice = np.repeat(i, 2)
    sign = np.tile([1.0, -1.0], n)

    # power balance at each step: P_G - P_b + P_c - P_D = P_PV
    terms = [g0 + i, b0 + i]
    coeffs = [1.0, -1.0]
    if has_curt:
        terms.append(c0 + i)
        coeffs.append(1.0)
    if has_diesel:
        terms.append(d0 + i)
        coeffs.append(-1.0)
    add_rows(named(["BAL"], range(n)), "=", p_pv, stack(*terms), coeffs)

    # fluctuation band on the grid injection, skipped across trace gaps
    if math.isfinite(cfg.fluctuation_limit):
        inner = later[~starts[1:]]
        inner_twice = np.repeat(inner, 2)
        updown = np.tile([1.0, -1.0], len(inner))
        add_rows(named(["RUP", "RDN"], inner.tolist()), "<=", cfg.fluctuation_limit,
                 stack(g0 + inner_twice, g0 + inner_twice - 1), stack(updown, -updown))

    # stored-energy recursion; deliberately chained across trace gaps so the
    # battery carries its state through the night
    add_rows(named(["SOC"], range(1, n)), "=", 0.0,
             stack(e0 + later, e0 + later - 1, b0 + later - 1), [1.0, -1.0, h])

    # battery power within the rating, both directions
    add_rows(named(["PBU", "PBL"], range(n)), "<=", 0.0,
             stack(b0 + twice, j_pbmax), stack(sign, -1.0))

    # stored energy within [X_min * rating, rating]
    add_rows(named(["EBU", "EBL"], range(n)), "<=", 0.0,
             stack(e0 + twice, j_ebmax), stack(sign, np.tile([-1.0, batt.soc_min_fraction], n)))

    if has_diesel:
        add_rows(named(["DCP"], range(n)), "<=", 0.0, stack(d0 + i, j_pdmax), [1.0, -1.0])
        fuel_cap_kwh = (
            diesel.annual_fuel_cap_liters / diesel.fuel_per_kwh
        ) * (pv.total_hours / HOURS_PER_YEAR)
        add_rows(["FUELCAP"], "<=", fuel_cap_kwh, (d0 + i)[None, :], h)

    if cfg.initial_soc_fraction is not None:
        add_rows(["INITSOC"], "=", 0.0, stack(e0, j_ebmax),
                 [1.0, -float(cfg.initial_soc_fraction)])
    # end at least as full as the start: no free stored energy
    add_rows(["CYCSOC"], "<=", 0.0, stack(e0, e0 + n - 1), [1.0, -1.0])

    indptr = np.concatenate([[0], np.cumsum(np.concatenate(counts))])
    rows = CsrRows(indptr, np.concatenate(cols), np.concatenate(vals), relations, np.concatenate(rhs))
    offset = -diesel.emission_charge_total if has_diesel else 0.0
    problem = build_problem(
        "maximize",
        np.concatenate(boxes),
        rows,
        np.concatenate(costs),
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
    n = len(formulation.steps)

    # a family the case lacks reads as zero
    def series(name: str) -> np.ndarray:
        # + 0.0 normalizes the -0.0 a variable parked at bound can carry
        return x[cols[name]] + 0.0 if name in cols else np.zeros(n)

    def rating(value: float) -> float:
        return 0.0 if abs(value) <= ZERO_RATING else value

    def scalar(name: str) -> float:
        return rating(float(x[cols[name].start])) if name in cols else 0.0

    # the net benefit is the objective at the decoded point, so a rating
    # zeroed from roundoff takes its term with it
    zeroed = [
        cols[name].start
        for name in ("p_batt_max", "e_batt_max", "p_diesel_max")
        if name in cols and scalar(name) == 0.0
    ]
    decoded = x.copy()
    decoded[zeroed] = 0.0

    p_diesel = series("p_diesel")
    return DispatchSolution(
        steps=formulation.steps.copy(),
        p_pv=formulation.p_pv.copy(),
        p_grid=series("p_grid"),
        p_batt=series("p_batt"),
        e_batt=series("e_batt"),
        p_curt=series("p_curt"),
        p_diesel=p_diesel,
        p_batt_max=scalar("p_batt_max"),
        e_batt_max=scalar("e_batt_max"),
        p_diesel_max=scalar("p_diesel_max"),
        net_benefit=objective_value(formulation.problem, decoded),
        diesel_energy=rating(float(formulation.step_hours * p_diesel.sum())),
    )
