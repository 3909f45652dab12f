"""Bounded-variable revised simplex with one logical column per row.

The basis inverse is kept as a sparse LU factorization (SuperLU, through
``scipy.sparse.linalg.splu``) of the basis at the last refactor, times the
pivots since then collapsed into one low-rank update (I - U T^-1 S), so an
FTRAN or BTRAN is one LU solve plus two small dense products. The factor is
refreshed every ``REFACTOR_INTERVAL`` pivots.
Row i has one logical column, n + i: the unit column e_i, whose value is the
row's slack b_i - a_i x, in [0, inf) for ``<=``, (-inf, 0] for ``>=`` and
[0, 0] for ``=``. A solve given a starting basis (an :class:`LpBasis`, such
as the final basis of an LP that this one extends) factors it and starts
there, with each row it does not name on its logical; one that is singular,
has the wrong basic count, names what the LP lacks or misses its bounds
falls back to the crash.
The crash is triangular over the equality rows: a column that an equality
row alone can pin is basic there at the value the row gives it, when that
value is inside its bounds. Every other row starts on its logical at its
residual, outside the logical's bounds where the crashed point violates the
row. A free column whose improving direction the zero slack of one of its
inequality rows blocks then takes that slack's place, when it is that row's
only free or basic structural column and its entry there is the largest of
both the row and the column: the zero-step pivot Dantzig pricing would make.
On the unsmoothed baseline every battery power P_b(k) is such a column, so it
ends in 1-2 iterations instead of 201 at 3 days.
Phase 1 minimizes the sum of the basics' infeasibilities, and phase 2 runs
the same loop with the LP's costs once none is left. Pricing is Dantzig, or
Bland's rule after a run of steps of length zero, a guard against cycling.
Each iteration moves x_B once, by the shorter of the ratio test's step and
the entering column's bound flip; the column that stops it, the entering one
or the basic one that leaves, goes to its bound by one rule.
While the loop runs, x_B, the basic costs and the bounds that hold each
basic variable live by basis position, and the full point ``x`` holds only
the nonbasic values; it is whole again after a refactor and when the loop
returns. Each column's price sign and whether it is free are kept beside its
status, so pricing is one pass over the columns.
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
        self.eta_rows: set[int] = set()  # rows[:n_etas] as a set
        self.repeats = False  # whether a row repeats in rows[:n_etas]
        self.U = np.empty((REFACTOR_INTERVAL, self.m))
        # only the lower triangle is ever written; the upper stays zero
        self.T_inv = np.zeros((REFACTOR_INTERVAL, REFACTOR_INTERVAL))

    def refactor(self, basis: np.ndarray) -> None:
        # SuperLU would factor the same basis into the same LU
        if self.n_etas == 0 and np.array_equal(basis, self.factored):
            return
        U, B = self.U[: self.n_etas], self.A[:, basis]
        self.n_etas = 0
        self.eta_rows.clear()
        self.repeats = False
        # the old factor goes first, so that the two never take memory at once
        self.factored = self.lu = None
        # a pivot on roundoff of an exact zero, which puts an entry past
        # 1 / PIVOT_TOL into its eta, can leave B structurally singular, and
        # relaxed SuperLU can crash on that; the case LPs never need the check
        if len(U) and max(U.max(), -U.min()) * PIVOT_TOL >= 1.0:
            from scipy.sparse.csgraph import structural_rank

            if structural_rank(B.T) < self.m:  # B^T is CSR, which it reads as is
                raise SolveStatusError("basis matrix is structurally singular")
        try:
            self.lu = splu(B, relax=1, panel_size=1)
        except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
            raise SolveStatusError(f"basis matrix is singular: {exc}") from None
        diag = np.abs(self.lu.U.diagonal())
        if diag.min() < 1e-13 * max(1.0, diag.max()):
            raise SolveStatusError("basis matrix is numerically singular")
        self.factored = basis.copy()

    def push_eta(self, r: int, w: np.ndarray) -> None:
        k, w_r = self.n_etas, w.item(r)
        np.divide(w, w_r, out=self.U[k])
        self.U[k, r] = (w_r - 1.0) / w_r
        # T's new row is [U[:k, r], 1], so row k of T^-1 is [-U[:k, r] T^-1, 1]
        self.T_inv[k, :k] = -(self.U[:k, r] @ self.T_inv[:k, :k])
        self.T_inv[k, k] = 1.0
        self.rows[k] = r
        self.repeats = self.repeats or r in self.eta_rows
        self.eta_rows.add(r)
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
        # B^-T v = B0^-T (I - S^T T^-T U^T) v; a row can repeat in S, and
        # then only subtract.at subtracts every term
        k = self.n_etas
        y = v.copy()
        z = (self.U[:k] @ v) @ self.T_inv[:k, :k]
        if self.repeats:
            np.subtract.at(y, self.rows[:k], z)
        else:
            y[self.rows[:k]] -= z
        return self.lu.solve(y, trans="T")


def _resting(lower: np.ndarray, upper: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each variable at its finite lower bound, else its finite upper, else
    0, and its nonbasic status there."""
    has_lower, has_upper = np.isfinite(lower), np.isfinite(upper)
    x = np.where(has_lower, lower, np.where(has_upper, upper, 0.0))
    vstat = np.select([lower == upper, has_lower, has_upper], [FIXED, AT_LOWER, AT_UPPER], FREE)
    return x, vstat


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
    its row; any other leaves the row on its logical. Returns the covered
    rows and their columns; ``side`` is :func:`row_sides` of the rows, 0 on
    the equality rows. Once the crash basis is factored,
    :meth:`_State._seat_free_columns` seats the free columns that a zero
    slack blocks.
    """
    A = problem.A
    # A's rows go into column order in place, as a copy would cost A's
    # memory: the crash, the logicals' residuals and evaluate_residuals then
    # sum each row in that order
    A.sum_duplicates()
    col_max = np.zeros(problem.n_vars)
    np.maximum.at(col_max, A.indices, np.abs(A.data))
    eq_rows = np.flatnonzero(side == 0.0)
    # the walk opens and closes only equality rows, so it reads only theirs:
    # row i of E is row eq_rows[i] of A
    E = A[eq_rows].tocsc()
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
        a = E.data.item(hit[0])
        if abs(a) < col_max.item(j) or abs(a) < PIVOT_TOL:
            continue
        i = indices[hit[0]]
        is_open[i] = False
        taken[j] = True
        pairs.append((eq_rows.item(i), j, a))
        walk.extend(row_members[row_ptr[i] : row_ptr[i + 1]])

    # each row is solved in Python floats over its own entries, summed in
    # order; A itself is not copied to lists, which would cost its memory
    rows, cols = [], []
    for r, j, a in reversed(pairs):
        start, end = A.indptr[r], A.indptr[r + 1]
        dot = 0.0
        for k, v in zip(A.indices[start:end].tolist(), A.data[start:end].tolist()):
            if k != j:
                dot += v * x.item(k)
        xj = (problem.rhs.item(r) - dot) / a
        if problem.lower.item(j) <= xj <= problem.upper.item(j):
            x[j] = xj
            rows.append(r)
            cols.append(j)
    return np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64)


def _named_start(problem: LpProblem, start: LpBasis) -> tuple | None:
    """The basic set ``start`` names in ``problem``, or None when a name is
    unknown or repeated or the basic count is not one per row. Its basic
    structural columns take the places of its ``tight`` rows."""
    col = dict(zip(problem.col_names, range(problem.n_vars)))
    row = dict(zip(problem.row_names, range(problem.n_rows)))
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
    return x, vstat, rows, cols


class _State:
    """The solver's working state over the structural columns and the
    logicals. It starts from the basis ``start`` names when that basis is
    nonsingular and its point misses no bound by more than
    ``FEASIBILITY_TOL`` times ``b_scale``, else from the crash; ``warm``
    tells which.

    Basic variables are kept by basis position: ``x_B[r]`` is the value of
    column ``basis[r]``, ``c_B[r]`` its cost, and ``held_lo[r]``,
    ``held_hi[r]`` the bounds the ratio test holds it to. ``x`` holds the
    nonbasic values; during :meth:`optimize` its basic entries are stale,
    and it holds the whole point again after a refactor and when
    :meth:`optimize` returns. A nonbasic column is always held to its own
    bounds. Beside ``vstat``, ``sign`` keeps each column's ``_PRICE_SIGN``
    and ``free`` marks the nonbasic free columns, so pricing is one pass.

    ``infeas`` holds phase 1's costs by basis position: -1 where x_B lies
    below its lower bound, +1 above its upper, else 0. An infeasible basic
    is held to (-inf, lo] or [hi, inf): the ratio test stops it only at the
    bound it violates, and it is then released, feasible from then on."""

    def __init__(self, problem: LpProblem, start: LpBasis | None = None):
        self.warm = False
        self.side = row_sides(problem.relations)
        named = _named_start(problem, start) if start is not None else None
        if named is not None:
            self._build(problem, named)
            self.warm = self._factor_start()
        if not self.warm:
            x, vstat = _resting(problem.lower, problem.upper)
            rows, cols = _crash(problem, x, self.side)
            vstat[cols] = BASIC
            self._build(problem, (x, vstat, rows, cols))
            self.factor.refactor(self.basis)
            self._hold_infeasible()
            self._seat_free_columns(problem)
        self.sign = _PRICE_SIGN[self.vstat]
        self.free = self.vstat == FREE

    def _build(self, problem: LpProblem, start: tuple) -> None:
        """The state from ``start`` = (x, vstat, rows, cols) over the
        structural columns: ``cols`` basic in rows ``rows``, and the logical
        of every other row basic at the row's residual."""
        x_struct, vstat_struct, rows, cols = start
        n, m = self.n, self.m = problem.n_vars, problem.n_rows
        c = -problem.objective if problem.sense == "maximize" else problem.objective

        # a nonbasic logical rests at 0, the bound nearest feasibility
        lo, hi = np.where(self.side < 0.0, -np.inf, 0.0), np.where(self.side > 0.0, np.inf, 0.0)
        x_logical, vstat_logical = _resting(lo, hi)
        on_logical = np.ones(m, dtype=bool)
        on_logical[rows] = False
        x_logical[on_logical] = (problem.rhs - problem.A @ x_struct)[on_logical]
        vstat_logical[on_logical] = BASIC
        self.basis = n + np.arange(m)
        self.basis[rows] = cols

        # [A | I], its logical block appended to A's CSC arrays
        A = problem.A.tocsc()
        self.A = sp.csc_matrix(
            (
                np.concatenate([A.data, np.ones(m)]),
                np.concatenate([A.indices, np.arange(m, dtype=A.indices.dtype)]),
                np.concatenate([A.indptr, A.indptr[-1] + np.arange(1, m + 1, dtype=A.indptr.dtype)]),
            ),
            shape=(m, n + m),
        )
        self.At = self.A.T.tocsr()
        self.b = problem.rhs
        self.lo = np.concatenate([problem.lower, lo])
        self.hi = np.concatenate([problem.upper, hi])
        self.x = np.concatenate([x_struct, x_logical])
        self.vstat = np.concatenate([vstat_struct, vstat_logical]).astype(np.int64)
        self.c = np.concatenate([c, np.zeros(m)])
        self.x_B, self.c_B = self.x[self.basis], self.c[self.basis]
        self.held_lo, self.held_hi = self.lo[self.basis], self.hi[self.basis]
        self.infeas = np.zeros(m)
        self.viol = np.empty(n + m)  # _choose_entering's buffer

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
        self._hold_infeasible()
        return bool(np.max(self._infeasibility(), initial=0.0) <= FEASIBILITY_TOL * self.b_scale)

    def _hold_infeasible(self) -> None:
        """Set ``infeas`` and the held bounds from x_B; x_B within 1e-11
        times ``b_scale`` of its bounds counts as feasible."""
        lo, hi, tol = self.lo[self.basis], self.hi[self.basis], 1e-11 * self.b_scale
        below, above = self.x_B < lo - tol, self.x_B > hi + tol
        self.infeas[:] = 0.0
        self.infeas[below], self.infeas[above] = -1.0, 1.0
        self.held_lo = np.where(below, -np.inf, np.where(above, hi, lo))
        self.held_hi = np.where(below, lo, np.where(above, np.inf, hi))

    def _release(self, rows: np.ndarray) -> None:
        """Release the infeasible basics in positions ``rows``, which a step
        took to the bound each violated; a step reaches few, so scalar steps
        cost less than array ones."""
        for r in rows.tolist():
            if self.infeas[r]:
                j = self.basis[r]
                self.held_lo[r], self.held_hi[r] = self.lo[j], self.hi[j]
                self.infeas[r] = 0.0

    def _infeasibility(self) -> np.ndarray:
        """How far each infeasible basic lies past the bound it violates."""
        k = np.flatnonzero(self.infeas)
        s, j = self.infeas[k], self.basis[k]
        return s * (self.x_B[k] - np.where(s < 0.0, self.lo[j], self.hi[j]))

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
        phase = 1 if self.infeas.any() else 2
        d = self._reduced_costs(phase)[:n]
        free = np.isneginf(problem.lower) & np.isposinf(problem.upper)
        cand = free & (self.vstat[:n] == FREE) & (np.abs(d) > self._optimality_tol(phase))
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
        # the crash keeps a basic logical in its own row's place; side[r] is +1
        # where a zero slack stops the row's activity rising, -1 where falling
        at_zero = (self.basis >= n) & (self.x_B == 0.0)
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
        # each takes its slack's place at the same value, 0, feasible
        self.x_B[rows], self.c_B[rows] = self.x[cols], self.c[cols]
        self.held_lo[rows], self.held_hi[rows] = self.lo[cols], self.hi[cols]
        self.factor.refactor(self.basis)

    def final_basis(self, problem: LpProblem) -> LpBasis:
        """The current basis by name: a row is tight when its logical is
        nonbasic."""
        n = self.n
        cols, rows = problem.col_names, problem.row_names
        return LpBasis(
            basic=tuple([cols[j] for j in np.flatnonzero(self.vstat[:n] == BASIC).tolist()]),
            tight=tuple([rows[i] for i in np.flatnonzero(self.vstat[n:] != BASIC).tolist()]),
            at_upper=tuple([cols[j] for j in np.flatnonzero(self.vstat[:n] == AT_UPPER).tolist()]),
        )

    # -- basis maintenance -------------------------------------------------

    def _refactor(self) -> None:
        """Factor the basis and set x_B = B^-1 (b - N x_N), and in phase 1
        the signs of its infeasibilities; ``x`` then holds the whole point."""
        self.factor.refactor(self.basis)
        xc = self.x.copy()
        xc[self.basis] = 0.0
        self.x_B = self.factor.ftran(self.b - self.A @ xc)
        self.x[self.basis] = self.x_B
        if self.infeas.any():
            self._hold_infeasible()

    # -- pricing -----------------------------------------------------------

    def _reduced_costs(self, phase: int) -> np.ndarray:
        if phase == 1:
            # phase 1 costs only the infeasible basics, by their signs
            d = self.At @ self.factor.btran(self.infeas)
            return np.negative(d, out=d)
        d = self.At @ self.factor.btran(self.c_B)
        return np.subtract(self.c, d, out=d)

    def _optimality_tol(self, phase: int) -> float:
        """Reduced costs within this count as optimal for the phase's costs."""
        c = self.infeas if phase == 1 else self.c
        return OPTIMALITY_TOL * (1.0 + float(np.max(np.abs(c))))

    def _choose_entering(self, d: np.ndarray, bland: bool, otol: float) -> int:
        # the rate at which each column improves the objective as it leaves
        # its bound; a free column moves whichever way improves it
        viol = np.multiply(self.sign, d, out=self.viol)
        np.absolute(d, out=viol, where=self.free)
        if bland:
            eligible = np.flatnonzero(viol > otol)
            return int(eligible[0]) if len(eligible) else -1
        q = int(viol.argmax())
        return q if viol.item(q) > otol else -1

    # -- main loop ---------------------------------------------------------

    def optimize(self, phase: int) -> str:
        try:
            return self._iterate(phase)
        finally:
            self.x[self.basis] = self.x_B

    def _iterate(self, phase: int) -> str:
        otol = self._optimality_tol(phase)
        # steps of length zero in a row; each leaves the objective unchanged
        stall = 0

        while True:
            if self.iterations >= self.max_iterations:
                return "iteration-limit"
            if phase == 1 and not self.infeas.any():
                return "optimal"

            bland = stall >= BLAND_TRIGGER
            d = self._reduced_costs(phase)
            q = self._choose_entering(d, bland, otol)
            if q == -1:
                if phase == 1:
                    if self._infeasibility().sum() > FEASIBILITY_TOL * self.b_scale:
                        return "infeasible"
                    # what is left is roundoff, which phase 2 treats as feasible
                    self._release(np.flatnonzero(self.infeas))
                return "optimal"
            # an eligible q at its lower bound has d[q] < 0, at its upper d[q] > 0
            direction = -1.0 if d.item(q) > 0 else 1.0

            w = self.factor.ftran(self.factor.column(q))

            # ratio test over the basics that move plus the entering bound
            # flip; only rows with |w| > PIVOT_TOL get a finite ratio. x_B[r]
            # moves by -direction w[r], so it falls where w[r] and direction agree
            abs_w = np.abs(w)
            falls = w > 0.0 if direction > 0.0 else w < 0.0
            t_cand = np.where(falls, self.x_B - self.held_lo, self.held_hi - self.x_B)
            np.maximum(t_cand, 0.0, out=t_cand)
            t_cand[abs_w <= PIVOT_TOL] = np.inf
            t_cand /= abs_w  # inf / 0 is inf, with no warning

            t_min = float(t_cand[t_cand.argmin()])
            t_flip = self.hi.item(q) - self.lo.item(q)  # inf unless both bounds are finite
            t = min(t_flip, t_min)
            if t == np.inf:
                if phase == 2:
                    return "unbounded"
                raise SolveStatusError(
                    "phase 1 subproblem reported unbounded; problem data is corrupt"
                )

            # one step: x_B moves by t; q then flips, or replaces the column that stops it
            self.x_B -= t * direction * w
            # the basics the step takes to the bound that holds them
            reached = (t_cand <= t + 1e-9 * (1.0 + t)).nonzero()[0]
            if t_flip <= t_min:
                self._to_bound(q, upper=direction > 0.0)
                if phase == 1:
                    self._release(reached)
            else:
                # every candidate has |w[r]| > PIVOT_TOL, so each one pivots
                if bland:
                    r = int(reached[np.argmin(self.basis[reached])])
                else:
                    r = int(reached[np.argmax(abs_w[reached])])
                # x_B[r] falls to its lower bound as w[r] and direction agree;
                # an infeasible one leaves at the bound it violated instead
                upper = (direction * w.item(r) < 0.0) != bool(self.infeas.item(r))
                if phase == 1:
                    self._release(reached)
                self._to_bound(self.basis.item(r), upper=upper)
                self.x[q] += t * direction
                self._pivot(q, r, w)
            self.iterations += 1
            # a step of positive length improves the objective by |d[q]| times it
            stall = stall + 1 if t == 0.0 else 0

    def _to_bound(self, j: int, upper: bool) -> None:
        """Make column j nonbasic at its upper bound if ``upper``, else at its
        lower; FIXED when the two are equal."""
        lo, hi = self.lo.item(j), self.hi.item(j)
        upper = upper and lo < hi
        self.x[j] = hi if upper else lo
        status = AT_UPPER if upper else FIXED if lo == hi else AT_LOWER
        self.vstat[j], self.sign[j], self.free[j] = status, _PRICE_SIGN[status], False

    def _pivot(self, q: int, r: int, w: np.ndarray) -> None:
        """Column q replaces the basic column of row r at its value in ``x``;
        w = B^-1 a_q."""
        self.vstat[q], self.sign[q], self.free[q] = BASIC, 0.0, False
        self.basis[r] = q
        self.x_B[r], self.c_B[r] = self.x[q], self.c[q]
        self.held_lo[r], self.held_hi[r] = self.lo[q], self.hi[q]
        self.factor.push_eta(r, w)
        if self.factor.n_etas >= REFACTOR_INTERVAL:
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
        iterations = phase1_iterations = infeasible_rows = 0
    else:
        st = _State(problem, start)
        warm_start = st.warm
        infeasible_rows = int(np.count_nonzero(st.infeas))
        status = st.optimize(phase=1)
        phase1_iterations = st.iterations
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
        infeasible_rows=infeasible_rows,
        max_primal_residual=max_res,
        max_bound_violation=max_bv,
        basis=basis,
        warm_start=warm_start,
    )
