"""Bounded-variable two-phase revised simplex.

The basis inverse is kept as a sparse LU factorization (SuperLU, through
``scipy.sparse.linalg.splu``) of the basis at the last refactor, times the
pivots since then collapsed into one low-rank update (I - U T^-1 S), so an
FTRAN or BTRAN is one LU solve plus two small dense products. The factor is
refreshed every ``REFACTOR_INTERVAL`` pivots.
A solve given a starting basis (an :class:`LpBasis`, such as the final
basis of an LP that this one extends) factors it and starts there, with each
row it does not name on its slack or artificial; phase 1 then only runs if
an artificial is above zero. A start that is singular, has the wrong basic
count or names what the LP lacks, or whose point misses its bounds, falls
back to the crash.
The crash is triangular over the equality rows: a column that an equality
row alone can pin is basic there at the value the row gives it, when that
value is inside its bounds. The remaining rows start on a slack when it
absorbs the residual at the crashed point, else on an artificial, so phase 1
only repairs the rows the start point violates. A free column whose improving
direction the zero slack of one of its inequality rows blocks then takes that
slack's place, when it is that row's only free or basic structural column
and its entry there is the largest of both the row and the column: the
zero-step pivot Dantzig pricing would make, done before the first iteration.
On the unsmoothed baseline every battery power P_b(k) is such a column, so it
ends in 1-2 iterations instead of 201 at 3 days.
The structural columns are followed by one block of signed unit columns,
the logicals: a slack on every inequality row, then an artificial on each
row that the start covers with neither a structural column nor its slack;
``logical_rows`` gives their rows and ``art0`` the first artificial.
Pricing is Dantzig by default and falls back to Bland's rule after a run of
steps of length zero, a guard against cycling on degenerate bases. Each
iteration moves x_B once, by the shorter of the ratio test's step and the
entering column's bound flip; the column that stops it, the entering one or
the basic one that leaves, goes to its bound by one rule.
"""

from __future__ import annotations

from collections import deque

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from ..errors import SolveStatusError
from .problem import LpBasis, LpProblem, LpSolution, evaluate_residuals, objective_value, row_sides

# variable statuses, numbered 0-4 because _PRICE_SIGN is indexed by them
AT_LOWER = 0
AT_UPPER = 1
BASIC = 2
FREE = 3
FIXED = 4

#: by status, the sign that turns a reduced cost into the rate at which the
#: objective improves as the column leaves its bound (0: it cannot leave)
_PRICE_SIGN = np.array([-1.0, 1.0, 0.0, 0.0, 0.0])

#: phase-1 infeasibility above this, times (1 + max|b|), means infeasible
FEASIBILITY_TOL = 1e-7
#: reduced costs within this, times (1 + max|c|), count as optimal
OPTIMALITY_TOL = 1e-9
#: smallest pivot element the ratio test accepts
PIVOT_TOL = 1e-10
#: steps of length zero in a row before pricing switches to Bland's rule
BLAND_TRIGGER = 200
#: eta updates between LU refactorizations
REFACTOR_INTERVAL = 50
#: iterations allowed per row plus column; a solve that reaches the limit
#: stops with status iteration-limit
ITERATION_LIMIT_FACTOR = 50


class _BasisFactor:
    """LU of the refactored basis B0 times a collapsed eta file.

    Pivot j on row r_j with column w_j = B^-1 a_q multiplies B^-1 by
    I - u_j e_(r_j)^T, where u_j = (w_j - e_(r_j)) / w_j[r_j]. The k pivots
    since the last refactor collapse to B^-1 = (I - U T^-1 S) B0^-1: row j of
    ``U`` holds u_j, S selects rows r_1..r_k, and T is unit lower triangular
    with T[j, i] = u_i[r_j]. ``push_eta`` appends u_k and row k of T^-1.
    """

    def __init__(self, A: sp.csc_matrix):
        self.A = A
        self.m = A.shape[0]
        self.lu = None
        self.factored = None  # the basis ``lu`` factors
        self.n_etas = 0
        self.rows = np.empty(REFACTOR_INTERVAL, dtype=np.int64)
        self.U = np.empty((REFACTOR_INTERVAL, self.m))
        # only the lower triangle is ever written; the upper stays zero
        self.T_inv = np.zeros((REFACTOR_INTERVAL, REFACTOR_INTERVAL))

    def refactor(self, basis: np.ndarray) -> None:
        # SuperLU would factor the same basis into the same LU
        if self.n_etas == 0 and np.array_equal(basis, self.factored):
            return
        self.n_etas = 0
        self.factored = None
        try:
            self.lu = splu(self.A[:, basis], relax=1, panel_size=1)
        except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
            raise SolveStatusError(f"basis matrix is singular: {exc}") from None
        diag = np.abs(self.lu.U.diagonal())
        if diag.min() < 1e-13 * max(1.0, diag.max()):
            raise SolveStatusError("basis matrix is numerically singular")
        self.factored = basis.copy()

    def push_eta(self, r: int, w: np.ndarray) -> None:
        k = self.n_etas
        np.divide(w, w[r], out=self.U[k])
        self.U[k, r] = (w[r] - 1.0) / w[r]
        # T's new row is [U[:k, r], 1], so row k of T^-1 is [-U[:k, r] T^-1, 1]
        self.T_inv[k, :k] = -(self.U[:k, r] @ self.T_inv[:k, :k])
        self.T_inv[k, k] = 1.0
        self.rows[k] = r
        self.n_etas = k + 1

    def column(self, q: int) -> np.ndarray:
        a = np.zeros(self.m)
        start, end = self.A.indptr[q], self.A.indptr[q + 1]
        a[self.A.indices[start:end]] = self.A.data[start:end]
        return a

    def ftran(self, v: np.ndarray) -> np.ndarray:
        # B^-1 v = (I - U T^-1 S) B0^-1 v
        k = self.n_etas
        y = self.lu.solve(v)
        y -= (self.T_inv[:k, :k] @ y[self.rows[:k]]) @ self.U[:k]
        return y

    def btran(self, v: np.ndarray) -> np.ndarray:
        # B^-T v = B0^-T (I - S^T T^-T U^T) v; a row can repeat in S
        k = self.n_etas
        y = v.copy()
        np.subtract.at(y, self.rows[:k], (self.U[:k] @ v) @ self.T_inv[:k, :k])
        return self.lu.solve(y, trans="T")


def _resting(lower: np.ndarray, upper: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each variable at its finite lower bound, else its finite upper, else
    0, and its nonbasic status there."""
    has_lower, has_upper = np.isfinite(lower), np.isfinite(upper)
    x = np.where(has_lower, lower, np.where(has_upper, upper, 0.0))
    vstat = np.select([lower == upper, has_lower, has_upper], [FIXED, AT_LOWER, AT_UPPER], FREE)
    return x, vstat


def _optimality_tol(c: np.ndarray) -> float:
    """Reduced costs within this count as optimal for the costs ``c``."""
    return OPTIMALITY_TOL * (1.0 + float(np.max(np.abs(c))))


def _crash(problem: LpProblem, x: np.ndarray, side: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Triangular crash over the equality rows (Bixby 1992).

    A non-fixed column covers an open equality row when that row holds its
    only nonzero among the open equality rows and that coefficient is the
    largest in magnitude of the column; the row then closes, and the column
    covers no other row. The walk visits every column in order, then each
    column of every row it closes, until no row closes, so a chain of
    equality rows is covered from either end: the SOC rows from the last E_b
    back when E_b(0) is pinned. Going back over the pairs in reverse, each
    row is solved for its column with every other column at its current
    value in ``x``; the columns of row r covered after r closed come first.
    A column that lands inside its bounds takes that value and is basic in
    its row; any other leaves the row to an artificial. Returns the covered
    rows and their columns; ``side`` is :func:`row_sides` of the rows, 0 on
    the equality rows. Once the crash basis is factored,
    :meth:`_State._seat_free_columns` seats the free columns that a zero
    slack blocks.
    """
    col_max = abs(problem.A).max(axis=0).toarray().ravel()
    eq_rows = np.flatnonzero(side == 0.0)
    # the walk opens and closes only equality rows, so it reads only theirs:
    # row i of E is row eq_rows[i] of A
    E = problem.A[eq_rows].tocsc()
    E.eliminate_zeros()
    is_open = [True] * len(eq_rows)
    # a fixed column takes no row, and nor does one that already took one
    taken = (problem.lower == problem.upper).tolist()
    # the walk reads the index arrays as lists; a value only at a hit
    indptr, indices = E.indptr.tolist(), E.indices.tolist()
    R = E.tocsr()
    row_ptr, row_members = R.indptr.tolist(), R.indices.tolist()

    pairs = []
    walk = deque(range(problem.n_vars))
    while walk:
        j = walk.popleft()
        if taken[j]:
            continue
        hit = [e for e in range(indptr[j], indptr[j + 1]) if is_open[indices[e]]]
        if len(hit) != 1:
            continue
        a = E.data[hit[0]]
        if abs(a) < col_max[j] or abs(a) < PIVOT_TOL:
            continue
        i = indices[hit[0]]
        is_open[i] = False
        taken[j] = True
        pairs.append((eq_rows[i], j, a))
        walk.extend(row_members[row_ptr[i] : row_ptr[i + 1]])

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


def _crash_start(problem: LpProblem, side: np.ndarray) -> tuple:
    """The crash's basic set: the crashed columns, and a slack on each
    inequality row it absorbs at the crashed point; ``side`` is
    :func:`row_sides` of the rows."""
    x, vstat = _resting(problem.lower, problem.upper)
    rows, cols = _crash(problem, x, side)
    vstat[cols] = BASIC
    return x, vstat, rows, cols, side * (problem.rhs - problem.A @ x) >= 0.0


def _named_start(problem: LpProblem, start: LpBasis) -> tuple | None:
    """The basic set ``start`` names in ``problem``, or None when a name is
    unknown or repeated or the basic count is not one per row.

    The logical of each row outside ``start.tight`` is basic, so rows that
    ``start`` does not know start on their slack or artificial.
    """
    col = {name: j for j, name in enumerate(problem.col_names)}
    row = {name: i for i, name in enumerate(problem.row_names)}
    try:
        cols = np.array([col[name] for name in start.basic], dtype=np.int64)
        rows = np.array([row[name] for name in start.tight], dtype=np.int64)
        up = np.array([col[name] for name in start.at_upper], dtype=np.int64)
    except KeyError:
        return None
    if not len(np.unique(cols)) == len(cols) == len(np.unique(rows)) == len(rows):
        return None
    lo, hi = problem.lower, problem.upper
    x, vstat = _resting(lo, hi)
    up = up[np.isfinite(hi[up]) & (lo[up] < hi[up])]
    x[up] = hi[up]
    vstat[up] = AT_UPPER
    vstat[cols] = BASIC
    tight = np.zeros(problem.n_rows, dtype=bool)
    tight[rows] = True
    return x, vstat, rows, cols, ~tight


class _State:
    """The solver's working state over the structural columns and the
    logical block. It starts from the basis ``start`` names when that basis
    is nonsingular and its point misses no bound by more than
    ``FEASIBILITY_TOL`` times ``b_scale``, else from the crash; ``warm``
    tells which."""

    def __init__(self, problem: LpProblem, start: LpBasis | None = None):
        self.warm = False
        self.side = row_sides(problem.relations)
        named = _named_start(problem, start) if start is not None else None
        if named is not None:
            self._build(problem, *named)
            self.warm = self._factor_start()
        if not self.warm:
            self._build(problem, *_crash_start(problem, self.side))
            self.factor.refactor(self.basis)
            self._seat_free_columns(problem)

    def _build(
        self,
        problem: LpProblem,
        x_struct: np.ndarray,
        vstat_struct: np.ndarray,
        rows: np.ndarray,
        cols: np.ndarray,
        slack_basic: np.ndarray,
    ) -> None:
        """The state with structural columns ``cols`` basic in rows ``rows``,
        the slack of each inequality row where ``slack_basic`` holds basic
        in its row, and an artificial basic in every other row."""
        n, m = self.n, self.m = problem.n_vars, problem.n_rows
        c = -problem.objective if problem.sense == "maximize" else problem.objective

        # Column layout: structural, then the logical block: a slack on each
        # inequality row, then an artificial on each row that neither a
        # structural column nor a slack covers. Logical k is the column
        # sign[k] e_(logical_rows[k]); a slack's sign is +1, an artificial's
        # that of its row's residual, so that it starts at |residual|.
        slack_rows = np.flatnonzero(self.side)
        covered = np.zeros(m, dtype=bool)
        covered[rows] = True
        covered[slack_rows[slack_basic[slack_rows]]] = True
        art_rows = np.flatnonzero(~covered)
        logical_rows = np.concatenate([slack_rows, art_rows])
        n_logical = len(logical_rows)
        self.art0 = n + len(slack_rows)  # the artificials are the tail columns
        is_art = np.arange(n_logical) >= len(slack_rows)

        resid = problem.rhs - problem.A @ x_struct
        sign = np.where(~is_art | (resid[logical_rows] >= 0.0), 1.0, -1.0)
        # a >= row's slack lies in [-inf, 0], every other logical in [0, inf];
        # a nonbasic one rests at 0, its bound nearest feasibility
        ge = ~is_art & (self.side[logical_rows] < 0.0)
        basic = is_art | slack_basic[logical_rows]

        self.basis = np.empty(m, dtype=np.int64)
        self.basis[logical_rows[basic]] = n + np.flatnonzero(basic)
        self.basis[rows] = cols
        logicals = sp.csc_matrix((sign, (logical_rows, np.arange(n_logical))), shape=(m, n_logical))
        self.A = sp.hstack([problem.A.tocsc(), logicals], format="csc")
        self.At = self.A.T.tocsr()
        self.b = problem.rhs
        self.n_total = n + n_logical
        self.logical_rows = logical_rows

        self.lo = np.concatenate([problem.lower, np.where(ge, -np.inf, 0.0)])
        self.hi = np.concatenate([problem.upper, np.where(ge, 0.0, np.inf)])
        self.x = np.concatenate([x_struct, np.where(basic, sign * resid[logical_rows], 0.0)])
        self.vstat = np.concatenate(
            [vstat_struct, np.where(basic, BASIC, np.where(ge, AT_UPPER, AT_LOWER))]
        ).astype(np.int64)

        self.c_phase2 = np.concatenate([c, np.zeros(n_logical)])
        self.c_phase1 = np.where(np.arange(self.n_total) >= self.art0, 1.0, 0.0)

        self.factor = _BasisFactor(self.A)
        self.iterations = 0
        self.max_iterations = ITERATION_LIMIT_FACTOR * (m + n)
        self.b_scale = 1.0 + np.max(np.abs(self.b))

    def _factor_start(self) -> bool:
        """Factor a named start and set x_B = B^-1 (b - N x_N); False when the
        basis is singular or some x_B misses its bounds by more than
        ``FEASIBILITY_TOL`` times ``b_scale``."""
        try:
            self._refactor()
        except SolveStatusError:
            return False
        tol = FEASIBILITY_TOL * self.b_scale
        xb = self.x[self.basis]
        return bool(
            np.all(xb >= self.lo[self.basis] - tol) and np.all(xb <= self.hi[self.basis] + tol)
        )

    def _seat_free_columns(self, problem: LpProblem) -> None:
        """Seat the free columns that a zero slack blocks (Bixby 1992; Maros
        2003, ch. 9).

        With the duals of the phase that runs first, a nonbasic free
        structural column j with a nonzero reduced cost takes the basic place
        of the slack of an inequality row r when that slack is basic at
        exactly 0, a_rj blocks j's improving direction, no other basic
        structural column and no other free column has an entry in r, and
        |a_rj| is the largest magnitude in both column j and row r. Row r then
        holds one basic column, so the basis stays nonsingular; only y_r
        changes, and no other free column touches r, so the swaps are
        independent. Each is the zero-step pivot Dantzig pricing would make,
        and the point does not move.
        """
        n, m = self.n, self.m
        c_work = self.c_phase1 if self.art0 < self.n_total else self.c_phase2
        d = self._reduced_costs(c_work)[:n]
        free = np.isneginf(problem.lower) & np.isposinf(problem.upper)
        cand = free & (self.vstat[:n] == FREE) & (np.abs(d) > _optimality_tol(c_work))
        if not cand.any():
            return
        A = problem.A.tocoo()
        nz = A.data != 0.0
        r, j, a = A.row[nz], A.col[nz], A.data[nz]
        mag = np.abs(a)
        col_max = np.zeros(n)
        np.maximum.at(col_max, j, mag)
        row_max = np.zeros(m)
        np.maximum.at(row_max, r, mag)
        # entries of free or basic structural columns per row; j counts itself
        holders = np.bincount(r[(free | (self.vstat[:n] == BASIC))[j]], minlength=m)
        # the crash keeps a basic slack in its own row's place; side[r] is
        # +1 where a zero slack stops the row's activity rising, -1 where falling
        at_zero = (self.basis >= n) & (self.basis < self.art0) & (self.x[self.basis] == 0.0)
        seat = (
            cand[j]
            & at_zero[r]
            & (-np.sign(d[j]) * a * self.side[r] > 0.0)
            & (holders[r] == 1)
            & (mag >= col_max[j])
            & (mag >= row_max[r])
            & (mag >= PIVOT_TOL)
        )
        if not seat.any():
            return
        cols, first = np.unique(j[seat], return_index=True)
        rows = r[seat][first]
        self.vstat[self.basis[rows]] = np.where(self.side[rows] > 0.0, AT_LOWER, AT_UPPER)
        self.vstat[cols] = BASIC
        self.basis[rows] = cols
        self.factor.refactor(self.basis)

    def final_basis(self, problem: LpProblem) -> LpBasis:
        """The current basis by name: a row is tight when neither its slack
        nor an artificial on it is basic."""
        n = self.n
        tight = np.ones(self.m, dtype=bool)
        tight[self.logical_rows[self.vstat[n:] == BASIC]] = False
        names = problem.col_names
        return LpBasis(
            basic=tuple(names[j] for j in np.flatnonzero(self.vstat[:n] == BASIC)),
            tight=tuple(problem.row_names[i] for i in np.flatnonzero(tight)),
            at_upper=tuple(names[j] for j in np.flatnonzero(self.vstat[:n] == AT_UPPER)),
        )

    # -- basis maintenance -------------------------------------------------

    def _refactor(self) -> None:
        """Factor the basis and set x_B = B^-1 (b - N x_N)."""
        self.factor.refactor(self.basis)
        xc = self.x.copy()
        xc[self.basis] = 0.0
        self.x[self.basis] = self.factor.ftran(self.b - self.A @ xc)

    # -- pricing -----------------------------------------------------------

    def _reduced_costs(self, c_work: np.ndarray) -> np.ndarray:
        y = self.factor.btran(c_work[self.basis])
        return c_work - self.At @ y

    def _choose_entering(self, d: np.ndarray, bland: bool, otol: float) -> int:
        # a free column moves whichever way improves the objective
        viol = np.where(self.vstat == FREE, np.abs(d), _PRICE_SIGN[self.vstat] * d)
        eligible = viol > otol
        if not np.any(eligible):
            return -1
        if bland:
            return int(np.flatnonzero(eligible)[0])
        return int(np.argmax(viol))

    # -- main loop ---------------------------------------------------------

    def optimize(self, phase: int) -> str:
        c_work = self.c_phase1 if phase == 1 else self.c_phase2
        otol = _optimality_tol(c_work)
        # steps of length zero in a row; each leaves the objective unchanged
        stall = 0

        while True:
            if self.iterations >= self.max_iterations:
                return "iteration-limit"
            # phase 1 minimizes the sum of the artificials
            if phase == 1 and self.x[self.art0 :].sum() <= 1e-11 * self.b_scale:
                return "optimal"

            bland = stall >= BLAND_TRIGGER
            d = self._reduced_costs(c_work)
            q = self._choose_entering(d, bland, otol)
            if q == -1:
                return "optimal"
            # an eligible q at its lower bound has d[q] < 0, at its upper d[q] > 0
            direction = -1.0 if d[q] > 0 else 1.0

            w = self.factor.ftran(self.factor.column(q))

            # ratio test over the basics that move plus the entering bound
            # flip; only rows with |w| > PIVOT_TOL get a finite ratio
            moving = np.flatnonzero(np.abs(w) > PIVOT_TOL)
            delta = -direction * w[moving]
            basics = self.basis[moving]
            room = np.where(
                delta < 0.0, self.x[basics] - self.lo[basics], self.hi[basics] - self.x[basics]
            )
            t_cand = np.maximum(room, 0.0) / np.abs(delta)

            t_min = float(np.min(t_cand, initial=np.inf))
            t_flip = self.hi[q] - self.lo[q]  # inf unless both bounds are finite
            t = min(t_flip, t_min)
            if t == np.inf:
                if phase == 2:
                    return "unbounded"
                raise SolveStatusError(
                    "phase 1 subproblem reported unbounded; problem data is corrupt"
                )

            # one step: x_B moves by t; q then flips, or replaces the column that stops it
            self.x[self.basis] -= t * direction * w
            if t_flip <= t_min:
                self._to_bound(q, upper=direction > 0.0)
            else:
                # every candidate has |w[r]| > PIVOT_TOL, so each one pivots
                cand = moving[t_cand <= t_min + 1e-9 * (1.0 + t_min)]
                if bland:
                    r = int(cand[np.argmin(self.basis[cand])])
                else:
                    r = int(cand[np.argmax(np.abs(w[cand]))])
                # x_B[r] falls to its lower bound as w[r] and direction agree
                self._to_bound(self.basis[r], upper=direction * w[r] < 0.0)
                self.x[q] += t * direction
                self._pivot(q, r, w)
            self.iterations += 1
            # a step of positive length improves the objective by |d[q]| times it
            stall = stall + 1 if t == 0.0 else 0

    def _to_bound(self, j: int, upper: bool) -> None:
        """Make column j nonbasic at its upper bound if ``upper``, else at its
        lower; FIXED when the two are equal."""
        lo, hi = self.lo[j], self.hi[j]
        upper = upper and lo < hi
        self.x[j] = hi if upper else lo
        self.vstat[j] = AT_UPPER if upper else FIXED if lo == hi else AT_LOWER

    def _pivot(self, q: int, r: int, w: np.ndarray) -> None:
        """Column q replaces the basic column of row r; w = B^-1 a_q."""
        self.vstat[q] = BASIC
        self.basis[r] = q
        self.factor.push_eta(r, w)
        if self.factor.n_etas >= REFACTOR_INTERVAL:
            self._refactor()

    # -- phase transition --------------------------------------------------

    def fix_artificials(self) -> None:
        """Fix every artificial at zero for phase 2. A basic one stays basic
        until phase 2's ratio test moves it out at a step of length zero, or
        to the end where its row is redundant; none can re-enter."""
        art = self.art0
        self.lo[art:] = 0.0
        self.hi[art:] = 0.0
        nonbasic = art + np.flatnonzero(self.vstat[art:] != BASIC)
        self.vstat[nonbasic] = FIXED
        self.x[nonbasic] = 0.0
        self._refactor()


def _solve_box(problem: LpProblem) -> tuple[str, np.ndarray]:
    """Exact optimum of a problem without rows: each variable with a cost
    moves to the bound its cost points to; a zero cost keeps the start value."""
    c = -problem.objective if problem.sense == "maximize" else problem.objective
    x, _ = _resting(problem.lower, problem.upper)
    target = np.where(c > 0, problem.lower, problem.upper)
    moves = c != 0
    if np.any(moves & ~np.isfinite(target)):
        return "unbounded", x
    x[moves] = target[moves]
    return "optimal", x


def solve(problem: LpProblem, start: LpBasis | None = None) -> LpSolution:
    """Solve ``problem`` to proven optimality or a definite failure status.

    ``start`` is a basis to start from, such as the final basis of an LP
    that ``problem`` extends; a start that is singular or infeasible, or
    that names what ``problem`` lacks, falls back to the crash. Returns an
    :class:`LpSolution` whose residual fields come from an independent
    evaluation of the original rows at the reported point.
    """
    basis = None
    warm_start = False
    if problem.n_rows == 0:
        status, xs = _solve_box(problem)
        iterations = phase1_iterations = artificials = 0
    else:
        st = _State(problem, start)
        warm_start = st.warm
        artificials = st.n_total - st.art0
        status = st.optimize(phase=1)
        phase1_iterations = st.iterations
        if status == "optimal":
            if np.abs(st.x[st.art0 :]).sum() > FEASIBILITY_TOL * st.b_scale:
                status = "infeasible"
            else:
                st.fix_artificials()
        if status == "optimal":
            status = st.optimize(phase=2)
        if status == "optimal":
            st._refactor()
            basis = st.final_basis(problem)
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
        basis=basis,
        warm_start=warm_start,
    )
