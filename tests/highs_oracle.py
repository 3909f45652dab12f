"""Reference optimum of an ``LpProblem`` from HiGHS.

HiGHS comes with scipy as ``scipy.optimize.linprog(method="highs")``. The
conversion reads only the problem's public arrays and shares no code with
the bundled simplex, so agreement between the two is independent evidence.
"""

import numpy as np
from scipy.optimize import linprog


def highs_objective(problem) -> float:
    """The optimal objective in the problem's own sense, offset included.

    ``>=`` rows are negated into ``<=`` rows and a maximize objective is
    negated for ``linprog``, which minimizes.
    """
    sign = -1.0 if problem.sense == "maximize" else 1.0
    rel = np.asarray(problem.relations)
    eq = rel == "="
    flip = np.where(rel == ">=", -1.0, 1.0)[~eq]
    A_ub = problem.A[~eq].multiply(flip[:, None]).tocsr()
    res = linprog(
        sign * problem.objective,
        A_ub=A_ub if A_ub.shape[0] else None,
        b_ub=flip * problem.rhs[~eq] if A_ub.shape[0] else None,
        A_eq=problem.A[eq] if eq.any() else None,
        b_eq=problem.rhs[eq] if eq.any() else None,
        bounds=np.column_stack([problem.lower, problem.upper]),
        method="highs",
    )
    if res.status != 0:
        raise AssertionError(f"HiGHS did not solve {problem.name}: {res.message}")
    return sign * float(res.fun) + problem.objective_offset
