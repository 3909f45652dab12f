"""Row-by-row reading of an :class:`LpProblem`'s constraint matrix."""


def row_coeffs(problem, i: int) -> dict[int, float]:
    """The coefficients stored in row ``i`` of ``problem.A`` by column,
    explicit zeros included."""
    span = slice(problem.A.indptr[i], problem.A.indptr[i + 1])
    return dict(zip(problem.A.indices[span].tolist(), problem.A.data[span].tolist()))
