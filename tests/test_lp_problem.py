import math

import numpy as np
import pytest

from pvsmooth.errors import LpDefinitionError
from pvsmooth.lp import CsrRows, build_problem, evaluate_residuals, objective_value

INF = math.inf


def test_builds_valid_problem():
    p = build_problem(
        "maximize",
        [(0.0, 1.0), (0.0, INF)],
        [([(0, 1.0), (1, 2.0)], "<=", 4.0)],
        [1.0, 1.0],
    )
    assert p.n_vars == 2
    assert p.n_rows == 1
    assert p.sense == "maximize"
    assert p.relations == ("<=",)
    assert p.upper[1] == INF


def test_rejects_bad_column_index():
    with pytest.raises(LpDefinitionError, match="column index 5"):
        build_problem("minimize", [(0, 1), (0, 1)], [([(5, 1.0)], "<=", 1.0)], [1.0, 0.0])


def test_rejects_duplicate_column_in_row():
    with pytest.raises(LpDefinitionError, match="duplicate column"):
        build_problem("minimize", [(0, 1)], [([(0, 1.0), (0, 2.0)], "<=", 1.0)], [1.0])


def test_rejects_inverted_bounds():
    with pytest.raises(LpDefinitionError, match="lower bound 1.0 exceeds"):
        build_problem("minimize", [(1.0, 0.0)], [], [1.0])


def test_rejects_nan_coefficient():
    with pytest.raises(LpDefinitionError, match="not finite"):
        build_problem("minimize", [(0, 1)], [([(0, float("nan"))], "<=", 1.0)], [1.0])
    with pytest.raises(LpDefinitionError, match="not finite"):
        build_problem("minimize", [(0, 1)], [], [float("inf")])
    with pytest.raises(LpDefinitionError, match="not finite"):
        build_problem("minimize", [(0, 1)], [([(0, 1.0)], "<=", float("nan"))], [1.0])


def test_rejects_nan_bound_but_allows_infinite():
    with pytest.raises(LpDefinitionError, match="NaN bound"):
        build_problem("minimize", [(float("nan"), 1.0)], [], [1.0])
    p = build_problem("minimize", [(-INF, INF)], [], [1.0])
    assert p.lower[0] == -INF


def test_rejects_unknown_relation_and_sense():
    with pytest.raises(LpDefinitionError, match="relation"):
        build_problem("minimize", [(0, 1)], [([(0, 1.0)], "<", 1.0)], [1.0])
    with pytest.raises(LpDefinitionError, match="sense"):
        build_problem("min", [(0, 1)], [], [1.0])


def test_default_names_are_generated():
    p = build_problem("minimize", [(0, 1)], [([(0, 1.0)], "=", 1.0)], [2.0])
    assert p.col_names == ("x0",)
    assert p.row_names == ("r0",)


def test_evaluate_residuals_measures_violation():
    p = build_problem(
        "minimize",
        [(0.0, 10.0), (0.0, 10.0)],
        [
            ([(0, 1.0), (1, 1.0)], "<=", 3.0),
            ([(0, 1.0)], ">=", 1.0),
            ([(1, 1.0)], "=", 2.0),
        ],
        [1.0, 1.0],
    )
    row_res, bound_res = evaluate_residuals(p, np.array([1.0, 2.0]))
    assert row_res == 0.0
    assert bound_res == 0.0
    # x0 below its >= row by 0.5 and x1 off the equality by 1.0
    row_res, _ = evaluate_residuals(p, np.array([0.5, 3.0]))
    assert row_res == pytest.approx(1.0)
    # bound violation is reported separately from row violation
    _, bound_res = evaluate_residuals(p, np.array([-0.25, 2.0]))
    assert bound_res == pytest.approx(0.25)


def test_objective_value_includes_offset():
    p = build_problem("maximize", [(0, 1)], [], [3.0], offset=7.5)
    assert objective_value(p, np.array([1.0])) == pytest.approx(10.5)


def test_triplet_rows_are_flattened_in_the_order_given():
    rows = [([(1, 2.0), (0, -0.0)], "<=", 4.0), ([], "=", 0.0), ([(0, 1.0)], ">=", -1.0)]
    flat = CsrRows.from_triplets(rows)
    assert flat.indptr.tolist() == [0, 2, 2, 3]
    assert list(flat.cols) == [1, 0, 0]
    assert list(flat.relations) == ["<=", "=", ">="]
    p = build_problem("minimize", [(0, 1), (0, 1)], rows, [1.0, 1.0])
    q = build_problem("minimize", [(0, 1), (0, 1)], flat, [1.0, 1.0])
    for a in (p, q):
        assert a.A.indices.tolist() == [1, 0, 0]
        assert np.signbit(a.A.data[1])  # the explicit -0.0 is stored as given
    assert p.rhs.tolist() == q.rhs.tolist() == [4.0, 0.0, -1.0]


@pytest.mark.parametrize(
    "rows,message",
    [
        (CsrRows([0, 1], [0], [1.0], ["<="], [1.0, 2.0]), "2 right-hand sides for 1 rows"),
        (CsrRows([0, 2], [0], [1.0], ["<="], [1.0]), "indptr must rise from 0 to 1 over 1 rows"),
        (CsrRows([1, 1], [0], [1.0], ["<="], [1.0]), "indptr must rise from 0 to 1 over 1 rows"),
        (CsrRows([0, 1], [0], [1.0, 2.0], ["<="], [1.0]), "2 coefficients for 1 column indices"),
    ],
)
def test_rejects_csr_parts_that_disagree(rows, message):
    with pytest.raises(LpDefinitionError, match=message):
        build_problem("minimize", [(0, 1)], rows, [1.0])


def test_first_offending_row_reports_its_first_fault():
    rows = [
        ([(0, 1.0)], "<=", 1.0),
        ([(0, 1.0), (0, float("nan"))], "<=", 1.0),
        ([(7, 1.0)], "<", 1.0),
    ]
    with pytest.raises(LpDefinitionError, match=r"^row 1: duplicate column index 0$"):
        build_problem("minimize", [(0, 1)], rows, [1.0])


@pytest.mark.parametrize("bounds, message", [
    ([(0.0, 1.0), (INF, INF)], "variable 1: lower bound inf leaves an empty box"),
    ([(-INF, -INF)], "variable 0: upper bound -inf leaves an empty box"),
    ([(0.0, -INF)], "variable 0: lower bound 0.0 exceeds upper bound -inf"),
])
def test_rejects_a_box_with_no_value(bounds, message):
    with pytest.raises(LpDefinitionError) as err:
        build_problem("minimize", bounds, [], [1.0] * len(bounds))
    assert str(err.value) == message
