"""General linear-program container: per-variable bounds and one sparse
constraint matrix."""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

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
    phase1_iterations: int
    artificials: int  # artificial columns in the starting basis
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


class CsrRows(NamedTuple):
    """Constraint rows as CSR parts.

    Row ``i`` has the coefficients ``vals[indptr[i]:indptr[i + 1]]`` on the
    columns ``cols[indptr[i]:indptr[i + 1]]``, in the order given and explicit
    zeros included, the relation ``relations[i]`` and the right-hand side
    ``rhs[i]``. Each part may be a sequence or an array.
    """

    indptr: Sequence[int] | np.ndarray
    cols: Sequence[int] | np.ndarray
    vals: Sequence[float] | np.ndarray
    relations: Sequence[str]
    rhs: Sequence[float] | np.ndarray

    @classmethod
    def from_triplets(cls, rows: Sequence[tuple[list[tuple[int, float]], str, float]]) -> CsrRows:
        """Rows given as ``(coeffs, relation, rhs)`` with sparse ``(col, val)``
        coefficients, flattened in the order given."""
        rows = list(rows)
        return cls(
            np.cumsum([0] + [len(coeffs) for coeffs, _, _ in rows]),
            [col for coeffs, _, _ in rows for col, _ in coeffs],
            [val for coeffs, _, _ in rows for _, val in coeffs],
            [relation for _, relation, _ in rows],
            [rhs for _, _, rhs in rows],
        )


def _check_row(i: int, cols: np.ndarray, vals: np.ndarray, relation, rhs: float, n: int) -> None:
    if relation not in RELATIONS:
        raise LpDefinitionError(f"row {i}: relation must be one of {RELATIONS}, got {relation!r}")
    if not math.isfinite(rhs):
        raise LpDefinitionError(f"row {i}: right-hand side is not finite: {rhs}")
    seen: set[int] = set()
    for col, val in zip(cols.tolist(), vals.tolist()):
        if not 0 <= col < n:
            raise LpDefinitionError(f"row {i}: column index {col} out of range 0..{n - 1}")
        if col in seen:
            raise LpDefinitionError(f"row {i}: duplicate column index {col}")
        if not math.isfinite(val):
            raise LpDefinitionError(f"row {i}: coefficient for column {col} is not finite: {val}")
        seen.add(col)


def build_problem(
    sense: str,
    bounds: Sequence[tuple[float, float]] | np.ndarray,
    rows: CsrRows | Sequence[tuple[list[tuple[int, float]], str, float]],
    objective: Sequence[float] | np.ndarray,
    *,
    offset: float = 0.0,
    col_names: Sequence[str] | None = None,
    row_names: Sequence[str] | None = None,
    name: str = "LP",
) -> LpProblem:
    """Validate and assemble an :class:`LpProblem`.

    ``bounds`` holds one ``(lower, upper)`` pair per variable (infinities
    allowed) and ``objective`` one coefficient per variable; both may be
    arrays. ``rows`` is a :class:`CsrRows`; a sequence of ``(coeffs,
    relation, rhs)`` triplets is flattened by :meth:`CsrRows.from_triplets`
    first.
    """
    if sense not in SENSES:
        raise LpDefinitionError(f"sense must be one of {SENSES}, got {sense!r}")
    obj = np.asarray(objective, dtype=float)
    n = len(obj)
    if len(bounds) != n:
        raise LpDefinitionError(f"{len(bounds)} bounds for {n} objective coefficients")
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
        lo, hi = lower[j], upper[j]
        if math.isnan(lo) or math.isnan(hi):
            raise LpDefinitionError(f"variable {j}: NaN bound")
        raise LpDefinitionError(f"variable {j}: lower bound {lo} exceeds upper bound {hi}")

    if not isinstance(rows, CsrRows):
        rows = CsrRows.from_triplets(rows)
    relations = tuple(rows.relations)
    rhs = np.array(rows.rhs, dtype=float)
    indptr = np.asarray(rows.indptr, dtype=np.int64)
    cols = np.asarray(rows.cols, dtype=np.int64)
    vals = np.array(rows.vals, dtype=float)
    m = len(relations)
    if len(rhs) != m:
        raise LpDefinitionError(f"{len(rhs)} right-hand sides for {m} rows")
    counts = np.diff(indptr)
    if len(indptr) != m + 1 or indptr[0] != 0 or np.any(counts < 0) or indptr[-1] != len(cols):
        raise LpDefinitionError(f"indptr must rise from 0 to {len(cols)} over {m} rows")
    if len(vals) != len(cols):
        raise LpDefinitionError(f"{len(vals)} coefficients for {len(cols)} column indices")
    if col_names is None:
        col_names = [f"x{j}" for j in range(n)]
    elif len(col_names) != n:
        raise LpDefinitionError(f"{len(col_names)} column names for {n} variables")
    if row_names is None:
        row_names = [f"r{i}" for i in range(m)]
    elif len(row_names) != m:
        raise LpDefinitionError(f"{len(row_names)} row names for {m} rows")

    # every check is an array operation; the first offending row is then
    # re-checked one coefficient at a time so that it raises the message
    # naming its first fault
    row_of = np.repeat(np.arange(m), counts)
    in_range = (cols >= 0) & (cols < n)
    bad_row = ~np.isfinite(rhs) | np.array([rel not in RELATIONS for rel in relations], dtype=bool)
    bad_row[row_of[~in_range | ~np.isfinite(vals)]] = True
    keys = np.sort(row_of[in_range] * n + cols[in_range])
    bad_row[keys[1:][keys[1:] == keys[:-1]] // n] = True
    if np.any(bad_row):
        i = int(np.flatnonzero(bad_row)[0])
        span = slice(indptr[i], indptr[i + 1])
        _check_row(i, cols[span], vals[span], relations[i], float(rhs[i]), n)

    A = sp.csr_matrix((vals, cols, indptr), shape=(m, n))
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
