"""General linear-program container: per-variable bounds and one sparse
constraint matrix."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np
import scipy.sparse as sp

from ..errors import LpDefinitionError

RELATIONS = ("<=", "=", ">=")
SENSES = ("maximize", "minimize")


@dataclass(frozen=True)
class LpRow:
    """One constraint: sparse coefficients, relation and right-hand side."""

    cols: np.ndarray
    vals: np.ndarray
    relation: str
    rhs: float
    name: str = ""


@dataclass(frozen=True)
class LpSolution:
    """Solver output; residuals are recomputed from the problem data, not
    taken from solver state."""

    status: str  # optimal | infeasible | unbounded | iteration-limit
    x: np.ndarray
    objective_value: float
    iterations: int
    max_primal_residual: float
    max_bound_violation: float


@dataclass(frozen=True)
class LpProblem:
    """Constraints are ``A x (relation) rhs`` row by row.

    ``A`` keeps each row's coefficients in the order they were given, and
    keeps explicit zero coefficients.
    """

    sense: str
    objective: np.ndarray
    objective_offset: float
    lower: np.ndarray
    upper: np.ndarray
    A: sp.csr_matrix
    relations: tuple[str, ...]
    rhs: np.ndarray
    row_names: tuple[str, ...]
    col_names: tuple[str, ...]
    name: str = "LP"

    @property
    def n_vars(self) -> int:
        return len(self.objective)

    @property
    def n_rows(self) -> int:
        return len(self.relations)

    @property
    def rows(self) -> tuple[LpRow, ...]:
        """The constraints as :class:`LpRow` objects, built anew on each access."""
        indptr, indices, data = self.A.indptr, self.A.indices, self.A.data
        return tuple(
            LpRow(
                cols=indices[indptr[i] : indptr[i + 1]].astype(np.int64),
                vals=data[indptr[i] : indptr[i + 1]].copy(),
                relation=self.relations[i],
                rhs=float(self.rhs[i]),
                name=self.row_names[i],
            )
            for i in range(self.n_rows)
        )


def _check_row(i: int, row: tuple, n: int) -> None:
    coeffs, relation, rhs = row
    if relation not in RELATIONS:
        raise LpDefinitionError(f"row {i}: relation must be one of {RELATIONS}, got {relation!r}")
    if not math.isfinite(rhs):
        raise LpDefinitionError(f"row {i}: right-hand side is not finite: {rhs}")
    seen: set[int] = set()
    for col, val in coeffs:
        if not 0 <= col < n:
            raise LpDefinitionError(f"row {i}: column index {col} out of range 0..{n - 1}")
        if col in seen:
            raise LpDefinitionError(f"row {i}: duplicate column index {col}")
        if not math.isfinite(val):
            raise LpDefinitionError(f"row {i}: coefficient for column {col} is not finite: {val}")
        seen.add(col)


def build_problem(
    sense: str,
    bounds: list[tuple[float, float]],
    rows: list[tuple[list[tuple[int, float]], str, float]],
    objective: list[float],
    *,
    offset: float = 0.0,
    col_names: list[str] | None = None,
    row_names: list[str] | None = None,
    name: str = "LP",
) -> LpProblem:
    """Validate and assemble an :class:`LpProblem`.

    ``bounds`` is one ``(lower, upper)`` pair per variable (infinities
    allowed), ``rows`` is a list of ``(coeffs, relation, rhs)`` with sparse
    ``(col, val)`` coefficients, and ``objective`` is dense.
    """
    if sense not in SENSES:
        raise LpDefinitionError(f"sense must be one of {SENSES}, got {sense!r}")
    n = len(objective)
    if len(bounds) != n:
        raise LpDefinitionError(f"{len(bounds)} bounds for {n} objective coefficients")
    obj = np.asarray(objective, dtype=float)
    if not np.all(np.isfinite(obj)):
        j = int(np.flatnonzero(~np.isfinite(obj))[0])
        raise LpDefinitionError(f"objective coefficient {j} is not finite: {obj[j]}")
    if not math.isfinite(offset):
        raise LpDefinitionError(f"objective offset is not finite: {offset}")

    box = np.array(bounds, dtype=float).reshape(n, 2)
    lower, upper = box[:, 0].copy(), box[:, 1].copy()
    bad = np.isnan(lower) | np.isnan(upper) | (lower > upper)
    if np.any(bad):
        j = int(np.flatnonzero(bad)[0])
        lo, hi = bounds[j]
        if math.isnan(lo) or math.isnan(hi):
            raise LpDefinitionError(f"variable {j}: NaN bound")
        raise LpDefinitionError(f"variable {j}: lower bound {lo} exceeds upper bound {hi}")

    m = len(rows)
    if col_names is None:
        col_names = [f"x{j}" for j in range(n)]
    elif len(col_names) != n:
        raise LpDefinitionError(f"{len(col_names)} column names for {n} variables")
    if row_names is None:
        row_names = [f"r{i}" for i in range(m)]
    elif len(row_names) != m:
        raise LpDefinitionError(f"{len(row_names)} row names for {m} rows")

    # flatten the triplets; every check below is an array operation, and the
    # first offending row is re-checked one coefficient at a time so that it
    # raises the message naming its first fault
    relations = tuple(rel for _, rel, _ in rows)
    rhs = np.fromiter((r for _, _, r in rows), dtype=float, count=m)
    counts = np.fromiter((len(coeffs) for coeffs, _, _ in rows), dtype=np.int64, count=m)
    indptr = np.concatenate([[0], np.cumsum(counts)])
    nnz = int(indptr[-1])
    flat = np.fromiter(
        chain.from_iterable(chain.from_iterable(coeffs for coeffs, _, _ in rows)),
        dtype=float,
        count=2 * nnz,
    )
    cols, vals = flat[0::2], flat[1::2].copy()
    row_of = np.repeat(np.arange(m), counts)

    bad_entry = ~((cols >= 0) & (cols < n)) | ~np.isfinite(vals)
    order = np.lexsort((cols, row_of))
    duplicate = (np.diff(row_of[order]) == 0) & (np.diff(cols[order]) == 0)
    bad_entry[order[1:][duplicate]] = True
    bad_row = ~np.isfinite(rhs) | np.array([rel not in RELATIONS for rel in relations], dtype=bool)
    bad_row[row_of[bad_entry]] = True
    if np.any(bad_row):
        i = int(np.flatnonzero(bad_row)[0])
        _check_row(i, rows[i], n)

    A = sp.csr_matrix((vals, cols.astype(np.int64), indptr), shape=(m, n))
    return LpProblem(
        sense=sense,
        objective=obj,
        objective_offset=float(offset),
        lower=lower,
        upper=upper,
        A=A,
        relations=relations,
        rhs=rhs,
        row_names=tuple(row_names),
        col_names=tuple(col_names),
        name=name,
    )


def evaluate_residuals(problem: LpProblem, x: np.ndarray) -> tuple[float, float]:
    """Worst constraint violation and worst bound violation at ``x``.

    This is the independent feasibility pass: it reads only the problem data
    and the candidate point.
    """
    r = problem.A @ x - problem.rhs
    rel = np.array(problem.relations, dtype="U2")
    viol = np.where(rel == "=", np.abs(r), np.where(rel == ">=", -r, r))
    lo_viol = np.max(problem.lower - x, initial=0.0)
    hi_viol = np.max(x - problem.upper, initial=0.0)
    return float(np.max(viol, initial=0.0)), float(max(lo_viol, hi_viol))


def objective_value(problem: LpProblem, x: np.ndarray) -> float:
    return float(np.dot(problem.objective, x) + problem.objective_offset)
