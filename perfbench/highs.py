"""HiGHS reference solves for pvsmooth LPs, through ``scipy.optimize.linprog``.

The conversion reads only the public fields of ``pvsmooth.lp.LpProblem``:
sense, dense objective with constant offset, per-variable bounds (infinite
allowed) and sparse rows with ``<=``, ``=`` or ``>=`` relations.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

#: objectives must agree with HiGHS to this relative tolerance
OBJECTIVE_REL_TOL = 1e-9


@dataclass(frozen=True)
class LinprogArrays:
    """``linprog`` inputs for one LP; ``sign`` maps linprog's minimum back."""

    c: np.ndarray
    A_ub: sp.csr_matrix | None
    b_ub: np.ndarray | None
    A_eq: sp.csr_matrix | None
    b_eq: np.ndarray | None
    bounds: list[tuple[float | None, float | None]]
    sign: float
    offset: float


@dataclass(frozen=True)
class HighsResult:
    status: str  # "optimal" or linprog's message
    objective: float  # in the LP's own sense, offset included
    seconds: float  # linprog call only, conversion excluded


def _stack(entries: list[tuple[np.ndarray, np.ndarray, float]], n: int):
    if not entries:
        return None, None
    indptr = np.cumsum([0] + [len(cols) for cols, _, _ in entries])
    indices = np.concatenate([cols for cols, _, _ in entries]).astype(np.int64)
    data = np.concatenate([vals for _, vals, _ in entries]).astype(float)
    A = sp.csr_matrix((data, indices, indptr), shape=(len(entries), n))
    return A, np.array([rhs for _, _, rhs in entries], dtype=float)


def to_linprog(problem) -> LinprogArrays:
    """Convert an ``LpProblem`` to minimize-form ``linprog`` arrays.

    ``>=`` rows are negated into ``<=`` rows; a maximize objective is negated
    and ``sign`` restores it.
    """
    if problem.sense not in ("maximize", "minimize"):
        raise ValueError(f"unknown sense {problem.sense!r}")
    sign = -1.0 if problem.sense == "maximize" else 1.0
    n = problem.n_vars
    ub: list[tuple[np.ndarray, np.ndarray, float]] = []
    eq: list[tuple[np.ndarray, np.ndarray, float]] = []
    for row in problem.rows:
        cols = np.asarray(row.cols, dtype=np.int64)
        vals = np.asarray(row.vals, dtype=float)
        if row.relation == "<=":
            ub.append((cols, vals, row.rhs))
        elif row.relation == ">=":
            ub.append((cols, -vals, -row.rhs))
        elif row.relation == "=":
            eq.append((cols, vals, row.rhs))
        else:
            raise ValueError(f"row {row.name!r}: unknown relation {row.relation!r}")
    A_ub, b_ub = _stack(ub, n)
    A_eq, b_eq = _stack(eq, n)
    bounds = [
        (float(lo) if np.isfinite(lo) else None, float(hi) if np.isfinite(hi) else None)
        for lo, hi in zip(problem.lower, problem.upper)
    ]
    return LinprogArrays(
        c=sign * np.asarray(problem.objective, dtype=float),
        A_ub=A_ub,
        b_ub=b_ub,
        A_eq=A_eq,
        b_eq=b_eq,
        bounds=bounds,
        sign=sign,
        offset=float(problem.objective_offset),
    )


def solve_highs(problem, repeats: int = 3) -> HighsResult:
    """Solve ``problem`` with HiGHS and return its objective in the LP's sense.

    The time is the median of ``repeats`` identical solves.
    """
    arrays = to_linprog(problem)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        res = linprog(
            arrays.c,
            A_ub=arrays.A_ub,
            b_ub=arrays.b_ub,
            A_eq=arrays.A_eq,
            b_eq=arrays.b_eq,
            bounds=arrays.bounds,
            method="highs",
        )
        times.append(time.perf_counter() - t0)
    seconds = statistics.median(times)
    if res.status != 0:
        return HighsResult(status=str(res.message), objective=float("nan"), seconds=seconds)
    return HighsResult(
        status="optimal", objective=arrays.sign * float(res.fun) + arrays.offset, seconds=seconds
    )


def relative_gap(ours: float, reference: float) -> float:
    """``|ours - reference|`` relative to the reference, floored at 1."""
    return abs(ours - reference) / max(abs(reference), 1.0)


def agrees(ours: float, reference: float) -> bool:
    return bool(np.isfinite(ours) and np.isfinite(reference)) and (
        relative_gap(ours, reference) <= OBJECTIVE_REL_TOL
    )
