"""Linear programming core: problem container, simplex solver, MPS files."""

from .mps import parse_mps, read_mps, render_mps, write_mps
from .problem import (
    CsrRows,
    LpBasis,
    LpProblem,
    LpRow,
    LpSolution,
    build_problem,
    evaluate_residuals,
    objective_value,
)
from .simplex import solve

__all__ = [
    "CsrRows",
    "LpBasis",
    "LpProblem",
    "LpRow",
    "LpSolution",
    "build_problem",
    "evaluate_residuals",
    "objective_value",
    "parse_mps",
    "read_mps",
    "render_mps",
    "solve",
    "write_mps",
]
