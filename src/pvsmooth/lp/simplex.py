"""Bounded-variable two-phase revised simplex.

The basis inverse is kept as a sparse LU factorization (SuperLU, through
``scipy.sparse.linalg.splu``) plus a short chain of product-form eta updates,
refreshed every ``REFACTOR_INTERVAL`` pivots.
The starting basis is a triangular crash over the equality rows: a column
that an equality row alone can pin is basic there at the value the row gives
it, when that value is inside its bounds. The remaining rows start on a slack
when it absorbs the residual at the crashed point, else on an artificial, so
phase 1 only repairs the rows the start point violates.
Pricing is Dantzig by default and falls back to Bland's rule after a run of
non-improving pivots, which breaks the cycling that plagues degenerate
dispatch bases.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from ..errors import SolveStatusError
from .problem import LpProblem, LpSolution, evaluate_residuals, objective_value

AT_LOWER = 0
AT_UPPER = 1
BASIC = 2
FREE = 3
FIXED = 4

#: phase-1 infeasibility above this, times (1 + max|b|), means infeasible
FEASIBILITY_TOL = 1e-7
#: reduced costs within this, times (1 + max|c|), count as optimal
OPTIMALITY_TOL = 1e-9
#: smallest pivot element the ratio test accepts
PIVOT_TOL = 1e-10
#: non-improving pivots in a row before pricing switches to Bland's rule
BLAND_TRIGGER = 200
#: eta updates between LU refactorizations
REFACTOR_INTERVAL = 50


@dataclass(frozen=True)
class SolveOptions:
    """Solver settings; the tolerances are the module constants above."""

    max_iterations: int | None = None  # default 50 * (rows + cols)


class _BasisFactor:
    """LU of the current basis matrix with eta-file updates."""

    def __init__(self, A: sp.csc_matrix):
        self.A = A
        self.m = A.shape[0]
        self.lu = None
        self.etas: list[tuple[int, np.ndarray]] = []

    def refactor(self, basis: np.ndarray) -> None:
        self.etas = []
        try:
            self.lu = splu(self.A[:, basis])
        except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
            raise SolveStatusError(f"basis matrix is singular: {exc}") from None
        diag = np.abs(self.lu.U.diagonal())
        if diag.min() < 1e-13 * max(1.0, diag.max()):
            raise SolveStatusError("basis matrix is numerically singular")

    def push_eta(self, r: int, w: np.ndarray) -> None:
        self.etas.append((r, w))

    def column(self, q: int) -> np.ndarray:
        a = np.zeros(self.m)
        start, end = self.A.indptr[q], self.A.indptr[q + 1]
        a[self.A.indices[start:end]] = self.A.data[start:end]
        return a

    def ftran(self, v: np.ndarray) -> np.ndarray:
        # B^-1 v
        y = self.lu.solve(v)
        for r, w in self.etas:
            yr = y[r] / w[r]
            y -= w * yr
            y[r] = yr
        return y

    def btran(self, v: np.ndarray) -> np.ndarray:
        # B^-T v
        y = v.copy()
        for r, w in reversed(self.etas):
            y[r] = (y[r] - (np.dot(w, y) - w[r] * y[r])) / w[r]
        return self.lu.solve(y, trans="T")


def _start_point(lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Each variable at its finite lower bound, else its finite upper, else 0."""
    return np.where(np.isfinite(lower), lower, np.where(np.isfinite(upper), upper, 0.0))


def _crash(problem: LpProblem, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Triangular crash over the equality rows (Bixby 1992).

    Walking the columns in order, a non-fixed column covers an open equality
    row when that row holds its only nonzero among the open equality rows and
    that coefficient is the largest in magnitude of the column; the row then
    closes. Going back over the pairs in reverse, each row is solved for its
    column with every other column at its current value in ``x``. A column
    that lands inside its bounds takes that value and is basic in its row;
    any other leaves the row to an artificial. Returns the covered rows and
    their columns.
    """
    A = problem.A.tocsc(copy=True)
    A.sum_duplicates()
    A.eliminate_zeros()
    col_max = abs(A).max(axis=0).toarray().ravel()
    is_open = np.array(problem.relations, dtype="U2") == "="

    pairs = []
    for j in np.flatnonzero(problem.lower != problem.upper):
        entries = np.arange(A.indptr[j], A.indptr[j + 1])
        hit = entries[is_open[A.indices[entries]]]
        if len(hit) != 1:
            continue
        a = A.data[hit[0]]
        if abs(a) < col_max[j] or abs(a) < PIVOT_TOL:
            continue
        r = A.indices[hit[0]]
        is_open[r] = False
        pairs.append((r, j, a))

    rows, cols = [], []
    for r, j, a in reversed(pairs):
        start, end = problem.A.indptr[r], problem.A.indptr[r + 1]
        row_cols, row_vals = problem.A.indices[start:end], problem.A.data[start:end]
        others = row_cols != j
        xj = (problem.rhs[r] - np.dot(row_vals[others], x[row_cols[others]])) / a
        if problem.lower[j] <= xj <= problem.upper[j]:
            x[j] = xj
            rows.append(r)
            cols.append(j)
    return np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64)


class _State:
    def __init__(self, problem: LpProblem, max_iterations: int | None):
        n = problem.n_vars
        m = problem.n_rows
        self.n = n
        self.m = m

        c = problem.objective.astype(float, copy=True)
        if problem.sense == "maximize":
            c = -c

        # Column layout: structural, then one slack per inequality row, then
        # artificials for rows that neither the crash nor a slack covers.
        rel = np.array(problem.relations, dtype="U2")
        slack_rows = np.flatnonzero(rel != "=")
        n_slack = len(slack_rows)
        slack_le = rel[slack_rows] == "<="
        slack_lo = np.where(slack_le, 0.0, -np.inf)
        slack_hi = np.where(slack_le, np.inf, 0.0)

        x_struct = _start_point(problem.lower, problem.upper)
        vstat_struct = np.where(
            problem.lower == problem.upper,
            FIXED,
            np.where(
                np.isfinite(problem.lower),
                AT_LOWER,
                np.where(np.isfinite(problem.upper), AT_UPPER, FREE),
            ),
        )

        crash_rows, crash_cols = _crash(problem, x_struct)
        vstat_struct[crash_cols] = BASIC

        b = problem.rhs
        resid = b - problem.A @ x_struct

        # a slack starts basic when it absorbs the row's initial residual;
        # otherwise it rests at its bound nearest feasibility, which is 0
        slack_resid = resid[slack_rows]
        slack_basic = np.where(slack_le, slack_resid >= 0.0, slack_resid <= 0.0)
        x_slack = np.where(slack_basic, slack_resid, 0.0)
        vstat_slack = np.where(slack_basic, BASIC, np.where(slack_le, AT_LOWER, AT_UPPER))
        row_covered = np.zeros(m, dtype=bool)
        row_covered[slack_rows[slack_basic]] = True
        row_covered[crash_rows] = True
        art_rows = np.flatnonzero(~row_covered)

        na = len(art_rows)
        n_total = n + n_slack + na
        basis = np.empty(m, dtype=np.int64)
        basis[slack_rows[slack_basic]] = n + np.flatnonzero(slack_basic)
        basis[crash_rows] = crash_cols
        basis[art_rows] = n + n_slack + np.arange(na)

        slacks = sp.csc_matrix(
            (np.ones(n_slack), (slack_rows, np.arange(n_slack))), shape=(m, n_slack)
        )
        art_sign = np.where(resid[art_rows] >= 0.0, 1.0, -1.0)
        artificials = sp.csc_matrix((art_sign, (art_rows, np.arange(na))), shape=(m, na))
        self.A = sp.hstack([problem.A.tocsc(), slacks, artificials], format="csc")
        self.At = self.A.T.tocsr()
        self.b = b
        self.n_total = n_total
        self.basis = basis

        self.lo = np.concatenate([problem.lower, slack_lo, np.zeros(na)])
        self.hi = np.concatenate([problem.upper, slack_hi, np.full(na, np.inf)])
        self.x = np.concatenate([x_struct, x_slack, np.abs(resid[art_rows])])
        self.vstat = np.concatenate(
            [vstat_struct, vstat_slack, np.full(na, BASIC, dtype=np.int64)]
        ).astype(np.int64)

        self.is_artificial = np.zeros(n_total, dtype=bool)
        self.is_artificial[n + n_slack :] = True

        self.c_phase2 = np.concatenate([c, np.zeros(n_slack + na)])
        self.c_phase1 = np.concatenate([np.zeros(n + n_slack), np.ones(na)])

        self.factor = _BasisFactor(self.A)
        self.iterations = 0
        self.max_iterations = max_iterations if max_iterations is not None else 50 * (m + n)
        self.b_scale = 1.0 + np.max(np.abs(b))

    # -- basis maintenance -------------------------------------------------

    def _recompute_basics(self) -> None:
        xc = self.x.copy()
        xc[self.basis] = 0.0
        v = self.b - self.A @ xc
        self.x[self.basis] = self.factor.ftran(v)

    def _refactor(self) -> None:
        self.factor.refactor(self.basis)
        self._recompute_basics()

    # -- pricing -----------------------------------------------------------

    def _reduced_costs(self, c_work: np.ndarray) -> np.ndarray:
        y = self.factor.btran(c_work[self.basis])
        return c_work - self.At @ y

    def _choose_entering(self, d: np.ndarray, banned: np.ndarray, bland: bool, otol: float) -> int:
        viol = np.zeros(self.n_total)
        at_lo = self.vstat == AT_LOWER
        at_up = self.vstat == AT_UPPER
        free = self.vstat == FREE
        viol[at_lo] = -d[at_lo]
        viol[at_up] = d[at_up]
        viol[free] = np.abs(d[free])
        viol[banned] = 0.0
        eligible = viol > otol
        if not np.any(eligible):
            return -1
        if bland:
            return int(np.flatnonzero(eligible)[0])
        return int(np.argmax(viol))

    # -- main loop ---------------------------------------------------------

    def optimize(self, phase: int) -> str:
        c_work = self.c_phase1 if phase == 1 else self.c_phase2
        otol = OPTIMALITY_TOL * (1.0 + float(np.max(np.abs(c_work))))
        bland = False
        stall = 0
        z = float(np.dot(c_work, self.x))

        while True:
            if self.iterations >= self.max_iterations:
                return "iteration-limit"
            if phase == 1 and z <= 1e-11 * self.b_scale:
                return "optimal"

            d = self._reduced_costs(c_work)
            banned = np.zeros(self.n_total, dtype=bool)

            while True:
                q = self._choose_entering(d, banned, bland, otol)
                if q == -1:
                    return "optimal"
                direction = 1.0
                if self.vstat[q] == AT_UPPER or (self.vstat[q] == FREE and d[q] > 0):
                    direction = -1.0

                w = self.factor.ftran(self.factor.column(q))

                # ratio test over the basics plus the entering bound flip
                delta = -direction * w
                t_cand = np.full(self.m, np.inf)
                dec = delta < -PIVOT_TOL
                inc = delta > PIVOT_TOL
                if np.any(dec):
                    room = np.maximum(self.x[self.basis[dec]] - self.lo[self.basis[dec]], 0.0)
                    t_cand[dec] = room / -delta[dec]
                if np.any(inc):
                    room = np.maximum(self.hi[self.basis[inc]] - self.x[self.basis[inc]], 0.0)
                    t_cand[inc] = room / delta[inc]

                t_min = float(np.min(t_cand))
                lo_q, hi_q = self.lo[q], self.hi[q]
                t_flip = hi_q - lo_q if np.isfinite(lo_q) and np.isfinite(hi_q) else np.inf

                if t_flip <= t_min:
                    if not np.isfinite(t_flip):
                        return "unbounded" if phase == 2 else self._phase1_unbounded()
                    self.x[self.basis] += t_flip * delta
                    if self.vstat[q] == AT_LOWER:
                        self.x[q] = hi_q
                        self.vstat[q] = AT_UPPER
                    else:
                        self.x[q] = lo_q
                        self.vstat[q] = AT_LOWER
                    self.iterations += 1
                    break

                if not np.isfinite(t_min):
                    return "unbounded" if phase == 2 else self._phase1_unbounded()

                near = t_cand <= t_min + 1e-9 * (1.0 + t_min)
                cand = np.flatnonzero(near)
                if bland:
                    r = int(cand[np.argmin(self.basis[cand])])
                else:
                    r = int(cand[np.argmax(np.abs(w[cand]))])

                if abs(w[r]) < PIVOT_TOL:
                    if self.factor.etas:
                        self._refactor()
                        banned = None
                        break  # stale factor; redo the iteration fresh
                    banned[q] = True
                    continue

                self._pivot(q, r, w, t_min, direction)
                self.iterations += 1
                break

            if banned is None:
                continue
            z_new = float(np.dot(c_work, self.x))
            if z - z_new > 1e-12 * (1.0 + abs(z)):
                stall = 0
                bland = False
            else:
                stall += 1
                if stall >= BLAND_TRIGGER:
                    bland = True
            z = z_new

    def _phase1_unbounded(self) -> str:
        raise SolveStatusError("phase 1 subproblem reported unbounded; problem data is corrupt")

    def _pivot(self, q: int, r: int, w: np.ndarray, t: float, direction: float) -> None:
        x_q0 = self.x[q]
        leave = self.basis[r]
        delta = -direction * w
        self.x[self.basis] += t * delta
        if self.lo[leave] == self.hi[leave]:
            self.x[leave] = self.lo[leave]
            self.vstat[leave] = FIXED
        elif delta[r] < 0:
            self.x[leave] = self.lo[leave]
            self.vstat[leave] = AT_LOWER
        else:
            self.x[leave] = self.hi[leave]
            self.vstat[leave] = AT_UPPER
        self.x[q] = x_q0 + t * direction
        self.vstat[q] = BASIC
        self.basis[r] = q
        self.factor.push_eta(r, w.copy())
        if len(self.factor.etas) >= REFACTOR_INTERVAL:
            self._refactor()

    # -- phase transition --------------------------------------------------

    def phase1_infeasibility(self) -> float:
        return float(np.sum(np.abs(self.x[self.is_artificial])))

    def drive_out_artificials(self) -> None:
        for r in range(self.m):
            if not self.is_artificial[self.basis[r]]:
                continue
            e_r = np.zeros(self.m)
            e_r[r] = 1.0
            brow = self.factor.btran(e_r)
            row_vals = self.At @ brow
            row_vals[self.is_artificial] = 0.0
            row_vals[self.vstat == BASIC] = 0.0
            row_vals[self.vstat == FIXED] = 0.0
            j = int(np.argmax(np.abs(row_vals)))
            if abs(row_vals[j]) <= 1e-7:
                continue  # redundant row; artificial stays basic at zero
            w = self.factor.ftran(self.factor.column(j))
            if abs(w[r]) < PIVOT_TOL:
                continue
            art = self.basis[r]
            self.vstat[art] = FIXED
            self.x[art] = 0.0
            self.vstat[j] = BASIC
            self.basis[r] = j
            self.factor.push_eta(r, w.copy())
            if len(self.factor.etas) >= REFACTOR_INTERVAL:
                self._refactor()
        # artificials can never re-enter
        art = self.is_artificial
        self.lo[art] = 0.0
        self.hi[art] = 0.0
        nonbasic_art = art & (self.vstat != BASIC)
        self.vstat[nonbasic_art] = FIXED
        self.x[nonbasic_art] = 0.0
        self._refactor()


def _solve_box(problem: LpProblem) -> tuple[str, np.ndarray]:
    """Exact optimum of a problem without rows: each variable with a cost
    moves to the bound its cost points to; a zero cost keeps the start value."""
    c = -problem.objective if problem.sense == "maximize" else problem.objective
    x = _start_point(problem.lower, problem.upper)
    target = np.where(c > 0, problem.lower, problem.upper)
    moves = c != 0
    if np.any(moves & ~np.isfinite(target)):
        return "unbounded", x
    x[moves] = target[moves]
    return "optimal", x


def solve(problem: LpProblem, options: SolveOptions | None = None) -> LpSolution:
    """Solve ``problem`` to proven optimality or a definite failure status.

    Returns an :class:`LpSolution` whose residual fields come from an
    independent evaluation of the original rows at the reported point.
    """
    opts = options or SolveOptions()
    if problem.n_rows == 0:
        status, xs = _solve_box(problem)
        iterations = phase1_iterations = artificials = 0
    else:
        st = _State(problem, opts.max_iterations)
        artificials = int(np.count_nonzero(st.is_artificial))
        st.factor.refactor(st.basis)
        status = st.optimize(phase=1)
        phase1_iterations = st.iterations
        if status == "optimal":
            if st.phase1_infeasibility() > FEASIBILITY_TOL * st.b_scale:
                status = "infeasible"
            else:
                st.drive_out_artificials()
        if status == "optimal":
            status = st.optimize(phase=2)
        if status == "optimal":
            st._refactor()
        xs = st.x[: st.n].copy()
        iterations = st.iterations

    max_res, max_bv = evaluate_residuals(problem, xs)
    return LpSolution(
        status=status,
        x=xs,
        objective_value=objective_value(problem, xs),
        iterations=iterations,
        phase1_iterations=phase1_iterations,
        artificials=artificials,
        max_primal_residual=max_res,
        max_bound_violation=max_bv,
    )
