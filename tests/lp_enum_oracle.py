"""Exhaustive vertex enumeration for tiny box-bounded LPs.

Independent oracle for the simplex solver. Every variable must have finite
bounds, so the feasible set is a polytope and any optimum sits on a vertex
where n constraints (rows taken as equalities, or bounds) are active. All
n-subsets are enumerated; no simplex machinery is shared with the solver.

Frozen before the solver tests were written. Do not adapt this file to make
tests pass; fix the solver instead.
"""

from __future__ import annotations

import itertools

import numpy as np

ROW_TOL = 1e-7
BOUND_TOL = 1e-9


def vertex_enumerate(problem):
    """Return ``(objective, x)`` of the best vertex, or ``None`` if no
    feasible vertex exists. Requires finite bounds on every variable."""
    n = problem.n_vars
    lower = np.asarray(problem.lower, dtype=float)
    upper = np.asarray(problem.upper, dtype=float)
    if not (np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))):
        raise ValueError("oracle requires finite bounds on every variable")

    dense_rows = problem.A.toarray()
    rhs = np.asarray(problem.rhs, dtype=float)
    relations = problem.relations

    sign = -1.0 if problem.sense == "maximize" else 1.0
    c = sign * np.asarray(problem.objective, dtype=float)

    best_val = np.inf
    best_x = None
    row_ids = range(problem.n_rows)
    for k in range(min(problem.n_rows, n) + 1):
        for active_rows in itertools.combinations(row_ids, k):
            m_rows = dense_rows[list(active_rows)] if k else np.zeros((0, n))
            b_rows = rhs[list(active_rows)] if k else np.zeros(0)
            for fixed_vars in itertools.combinations(range(n), n - k):
                M = np.vstack([m_rows, np.eye(n)[list(fixed_vars)]])
                n_free = n - k
                n_assign = 2**n_free
                B = np.empty((n, n_assign))
                B[:k, :] = b_rows[:, None]
                for a in range(n_assign):
                    for t, j in enumerate(fixed_vars):
                        B[k + t, a] = upper[j] if (a >> t) & 1 else lower[j]
                try:
                    X = np.linalg.solve(M, B)
                except np.linalg.LinAlgError:
                    continue
                feas = np.all(X >= lower[:, None] - BOUND_TOL, axis=0)
                feas &= np.all(X <= upper[:, None] + BOUND_TOL, axis=0)
                act = dense_rows @ X
                for i, rel in enumerate(relations):
                    tol = ROW_TOL * (1.0 + abs(rhs[i]))
                    if rel == "<=":
                        feas &= act[i] <= rhs[i] + tol
                    elif rel == ">=":
                        feas &= act[i] >= rhs[i] - tol
                    else:
                        feas &= np.abs(act[i] - rhs[i]) <= tol
                if not np.any(feas):
                    continue
                vals = c @ X[:, feas]
                a_best = int(np.argmin(vals))
                if vals[a_best] < best_val:
                    best_val = float(vals[a_best])
                    best_x = X[:, feas][:, a_best].copy()

    if best_x is None:
        return None
    ref_obj = sign * best_val + problem.objective_offset
    return ref_obj, best_x
