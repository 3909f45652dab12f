"""Simplex solver tests.

The main correctness check pits the solver against the frozen vertex
enumeration oracle in lp_enum_oracle.py on seeded random instances with up
to 6 variables and 6 rows, mixing senses, relations, fixed variables and
negative lower bounds.
"""

import json
import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from highs_oracle import highs_objective
from lp_enum_oracle import vertex_enumerate
from pvsmooth.cli import _formulate, build_power_series
from pvsmooth.config import load_run_config
from pvsmooth.errors import SolveStatusError
from pvsmooth.lp import CsrRows, SolveOptions, build_problem, simplex, solve

INF = math.inf


def random_instance(rng):
    n = int(rng.integers(1, 7))
    m = int(rng.integers(0, 7))
    sense = "maximize" if rng.integers(0, 2) else "minimize"
    lower = rng.integers(-6, 1, size=n) / 2.0
    upper = lower + rng.integers(0, 9, size=n) / 2.0
    c = rng.integers(-10, 11, size=n) / 2.0
    # interior point certifying feasibility of every generated row
    x0 = lower + (upper - lower) * rng.random(n)
    rows = []
    for _ in range(m):
        nnz = int(rng.integers(1, n + 1))
        cols = rng.choice(n, size=nnz, replace=False)
        vals = rng.integers(-8, 9, size=nnz) / 2.0
        act = float(np.dot(vals, x0[cols]))
        rel = ("<=", ">=", "=")[int(rng.integers(0, 3))]
        margin = float(rng.random()) * 2.0
        rhs = {"<=": act + margin, ">=": act - margin, "=": act}[rel]
        rows.append(([(int(j), float(v)) for j, v in zip(cols, vals)], rel, rhs))
    return build_problem(sense, list(zip(lower, upper)), rows, list(c))


def case_lp(tmp_path, label, days=3, **constraints):
    """The LP of case ``label`` that ``pvsmooth run`` builds on the seed-7
    synthetic trace, with ``constraints`` over the defaults."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "weather": {"synthetic": {"days": days, "seed": 7, "variability": 0.8}},
        "constraints": constraints,
    }))
    config = load_run_config(path)
    form, _, _ = _formulate(label, config, build_power_series(config, None), config.battery)
    return form


def rows_named(problem, prefix):
    return np.array([i for i, name in enumerate(problem.row_names) if name.startswith(prefix)])


class TestSpecExamples:
    def test_two_variable_maximum(self):
        p = build_problem(
            "maximize",
            [(0.0, INF), (0.0, INF)],
            [([(0, 1.0)], "<=", 1.0), ([(1, 1.0)], "<=", 2.0)],
            [1.0, 1.0],
        )
        sol = solve(p)
        assert sol.status == "optimal"
        assert sol.objective_value == pytest.approx(3.0)
        np.testing.assert_allclose(sol.x, [1.0, 2.0])

    def test_unbounded(self):
        p = build_problem("maximize", [(0.0, INF)], [], [1.0])
        assert solve(p).status == "unbounded"

    def test_unbounded_free_variable(self):
        p = build_problem("minimize", [(-INF, INF)], [], [1.0])
        assert solve(p).status == "unbounded"

    def test_infeasible(self):
        p = build_problem("minimize", [(0.0, INF)], [([(0, 1.0)], "<=", -1.0)], [1.0])
        assert solve(p).status == "infeasible"

    def test_iteration_limit(self):
        p = random_instance(np.random.default_rng(5))
        sol = solve(p, SolveOptions(max_iterations=1))
        assert sol.status == "iteration-limit"
        assert sol.iterations == 1


class TestAgainstEnumerationOracle:
    def test_random_instances(self):
        rng = np.random.default_rng(2024)
        solved = 0
        for _ in range(30):
            p = random_instance(rng)
            sol = solve(p)
            ref = vertex_enumerate(p)
            assert ref is not None, "generator promised feasibility"
            assert sol.status == "optimal"
            assert abs(sol.objective_value - ref[0]) <= 1e-8 * (1.0 + abs(ref[0]))
            rhs_inf = max((abs(r.rhs) for r in p.rows), default=0.0)
            assert sol.max_primal_residual <= 1e-7 * (1.0 + rhs_inf)
            assert sol.max_bound_violation <= 1e-9
            solved += 1
        assert solved == 30

    def test_contradictory_rows_are_infeasible(self):
        rng = np.random.default_rng(77)
        for _ in range(10):
            p = random_instance(rng)
            n = p.n_vars
            a = [(j, float(v)) for j, v in enumerate(rng.integers(1, 5, size=n))]
            rows = [(list(zip(r.cols.tolist(), r.vals.tolist())), r.relation, r.rhs) for r in p.rows]
            rows.append((a, "<=", -1.0))
            rows.append((a, ">=", 1.0))
            bad = build_problem(p.sense, list(zip(p.lower, p.upper)), rows, list(p.objective))
            assert solve(bad).status == "infeasible"
            assert vertex_enumerate(bad) is None


class TestDegeneracy:
    def test_classic_cycling_instance(self):
        # Beale's example; naive Dantzig pivoting cycles on it
        p = build_problem(
            "minimize",
            [(0.0, 1e4)] * 4,
            [
                ([(0, 0.25), (1, -60.0), (2, -0.04), (3, 9.0)], "<=", 0.0),
                ([(0, 0.5), (1, -90.0), (2, -0.02), (3, 3.0)], "<=", 0.0),
                ([(2, 1.0)], "<=", 1.0),
            ],
            [-0.75, 150.0, -0.02, 6.0],
        )
        sol = solve(p)
        assert sol.status == "optimal"
        assert sol.objective_value == pytest.approx(-0.05, abs=1e-9)
        ref = vertex_enumerate(p)
        assert sol.objective_value == pytest.approx(ref[0], rel=1e-9)


class TestBoundedVariableFeatures:
    def test_negative_lower_bound(self):
        p = build_problem("minimize", [(-5.0, 3.0)], [], [1.0])
        sol = solve(p)
        assert sol.status == "optimal"
        assert sol.x[0] == -5.0

    def test_bound_flip_reaches_upper(self):
        p = build_problem(
            "maximize",
            [(0.0, 1.0), (0.0, 1.0)],
            [([(0, 1.0), (1, 1.0)], "<=", 2.0)],
            [1.0, 2.0],
        )
        sol = solve(p)
        assert sol.status == "optimal"
        np.testing.assert_allclose(sol.x, [1.0, 1.0])
        assert sol.objective_value == pytest.approx(3.0)

    def test_free_variable_pinned_by_equality(self):
        p = build_problem(
            "minimize",
            [(-INF, INF), (0.0, 1.0)],
            [([(0, 1.0), (1, 1.0)], "=", 3.0)],
            [2.0, 1.0],
        )
        sol = solve(p)
        assert sol.status == "optimal"
        np.testing.assert_allclose(sol.x, [2.0, 1.0], atol=1e-9)
        assert sol.objective_value == pytest.approx(5.0)

    def test_fixed_variable_stays_fixed(self):
        p = build_problem(
            "maximize",
            [(2.0, 2.0), (0.0, 10.0)],
            [([(0, 1.0), (1, 1.0)], "<=", 6.0)],
            [5.0, 1.0],
        )
        sol = solve(p)
        assert sol.status == "optimal"
        assert sol.x[0] == 2.0
        assert sol.objective_value == pytest.approx(14.0)

    def test_storage_recursion_ladder(self):
        # E2-E1+0.5*P1=0, E3-E2+0.5*P2=0, E1 fixed at 5, maximize discharge
        p = build_problem(
            "maximize",
            [(5.0, 5.0), (0.0, 10.0), (0.0, 10.0), (-4.0, 4.0), (-4.0, 4.0)],
            [
                ([(1, 1.0), (0, -1.0), (3, 0.5)], "=", 0.0),
                ([(2, 1.0), (1, -1.0), (4, 0.5)], "=", 0.0),
            ],
            [0.0, 0.0, 0.0, 1.0, 1.0],
        )
        sol = solve(p)
        assert sol.status == "optimal"
        assert sol.objective_value == pytest.approx(8.0)
        ref = vertex_enumerate(p)
        assert ref[0] == pytest.approx(8.0)


class TestSolverInvariants:
    def test_determinism(self):
        p = random_instance(np.random.default_rng(99))
        s1 = solve(p)
        s2 = solve(p)
        assert s1.status == s2.status
        assert s1.iterations == s2.iterations
        np.testing.assert_array_equal(s1.x, s2.x)
        assert s1.objective_value == s2.objective_value

    def test_positive_scaling_of_objective(self):
        # scaling by a power of two keeps every float operation exact
        rng = np.random.default_rng(31)
        for _ in range(5):
            p = random_instance(rng)
            rows = CsrRows(p.A.indptr, p.A.indices, p.A.data, p.relations, p.rhs)
            scaled = build_problem(
                p.sense, np.column_stack([p.lower, p.upper]), rows, 4.0 * p.objective
            )
            s1 = solve(p)
            s2 = solve(scaled)
            assert s1.status == s2.status == "optimal"
            np.testing.assert_array_equal(s1.x, s2.x)
            assert s2.objective_value == 4.0 * s1.objective_value

    @settings(max_examples=40, deadline=None)
    @given(
        c=st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=6),
        widths=st.lists(st.floats(min_value=0, max_value=9), min_size=6, max_size=6),
        lows=st.lists(st.floats(min_value=-5, max_value=5), min_size=6, max_size=6),
    )
    # a gain below the optimality tolerance must still be taken
    @example(c=[0.0, 0.0, 0.0, -1e-9], widths=[0.0, 0.0, 0.0, 1.0, 0.0, 0.0], lows=[0.0] * 6)
    def test_pure_box_problems_match_closed_form(self, c, widths, lows):
        # with no rows the optimum is separable: each variable sits at the
        # bound its cost sign points to
        n = len(c)
        bounds = [(lows[j], lows[j] + widths[j]) for j in range(n)]
        p = build_problem("minimize", bounds, [], c)
        sol = solve(p)
        assert sol.status == "optimal"
        want = sum(c[j] * (bounds[j][0] if c[j] >= 0 else bounds[j][1]) for j in range(n))
        assert sol.objective_value == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_iterations_stay_under_default_cap(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            p = random_instance(rng)
            sol = solve(p)
            assert sol.iterations <= 50 * (p.n_rows + p.n_vars)

    def test_drive_out_keeps_the_eta_file_bounded(self, monkeypatch):
        # the cyclic rows x_i - x_(i+1 mod m) = 0 hold at the start point and
        # give every column two equality entries, so no crash column covers
        # a row: each artificial sits basic at zero, phase 1 ends at once and
        # drive-out pivots once per row but the one redundant row
        m = 3 * simplex.REFACTOR_INTERVAL
        rows = [([(i, 1.0), ((i + 1) % m, -1.0)], "=", 0.0) for i in range(m)]
        p = build_problem("maximize", [(0.0, 1.0)] * m, rows, [1.0] * m)
        longest = pushes = drive_out_pushes = 0
        push_eta = simplex._BasisFactor.push_eta
        drive_out = simplex._State.drive_out_artificials

        def recording_push(factor, r, w):
            nonlocal longest, pushes
            push_eta(factor, r, w)
            pushes += 1
            longest = max(longest, len(factor.etas))

        def recording_drive_out(state):
            nonlocal drive_out_pushes
            before = pushes
            drive_out(state)
            drive_out_pushes = pushes - before

        monkeypatch.setattr(simplex._BasisFactor, "push_eta", recording_push)
        monkeypatch.setattr(simplex._State, "drive_out_artificials", recording_drive_out)
        sol = solve(p)
        assert sol.status == "optimal"
        assert sol.objective_value == pytest.approx(m)
        assert drive_out_pushes > simplex.REFACTOR_INTERVAL
        assert longest == simplex.REFACTOR_INTERVAL


class TestCrashBasis:
    def test_artificials_only_on_the_ramp_rows_the_raw_pv_breaks(self, tmp_path):
        form = case_lp(tmp_path, "A")
        p = form.problem
        x = np.zeros(p.n_vars)
        x[form.columns["p_grid"]] = form.p_pv
        ramp = np.concatenate([rows_named(p, "RUP"), rows_named(p, "RDN")])
        broken = int(np.count_nonzero((p.A @ x)[ramp] > p.rhs[ramp]))
        assert broken == 106
        sol = solve(p)
        assert sol.status == "optimal"
        assert sol.artificials == broken
        assert sol.iterations > sol.phase1_iterations > 0

    def test_baseline_starts_feasible(self, tmp_path):
        sol = solve(case_lp(tmp_path, "baseline").problem)
        assert sol.status == "optimal"
        assert sol.artificials == 0
        assert sol.phase1_iterations == 0

    def test_grid_cap_below_the_pv_peak_leaves_the_balance_row_to_an_artificial(self, tmp_path):
        cap = 6000.0
        form = case_lp(tmp_path, "A", grid_cap=cap)
        p = form.problem
        over = form.p_pv > cap
        assert over.any() and not over.all()
        st = simplex._State(p, None)
        bal = rows_named(p, "BAL")
        assert st.is_artificial[st.basis[bal[over]]].all()
        assert not st.is_artificial[st.basis[bal[~over]]].any()
        p_grid = np.arange(p.n_vars)[form.columns["p_grid"]]
        assert (st.vstat[p_grid[over]] == simplex.AT_LOWER).all()
        assert (st.vstat[p_grid[~over]] == simplex.BASIC).all()
        sol = solve(p)
        assert sol.status == "optimal"
        assert sol.objective_value == pytest.approx(highs_objective(p), rel=1e-9)

    @pytest.mark.parametrize("other", [1.0, 0.25], ids=["largest-elsewhere", "largest-here"])
    def test_pivot_must_be_the_columns_largest_entry(self, other):
        # x0's only equality entry is 0.5; a larger entry elsewhere keeps
        # it out of the crash, and the row starts on an artificial
        p = build_problem(
            "minimize",
            [(0.0, 10.0)],
            [([(0, 0.5)], "=", 1.0), ([(0, other)], "<=", 5.0)],
            [1.0],
        )
        st = simplex._State(p, None)
        crashed = other < 0.5
        assert (st.vstat[0] == simplex.BASIC) == crashed
        assert st.is_artificial[st.basis[0]] == (not crashed)
        if crashed:
            assert st.x[0] == 2.0
        sol = solve(p)
        assert sol.status == "optimal"
        assert sol.x[0] == pytest.approx(2.0)

    def test_pivot_below_pivot_tol_is_refused(self):
        tiny = 0.1 * simplex.PIVOT_TOL
        p = build_problem("minimize", [(0.0, 1.0)], [([(0, tiny)], "=", 0.0)], [1.0])
        st = simplex._State(p, None)
        assert st.vstat[0] == simplex.AT_LOWER
        assert st.is_artificial[st.basis[0]]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_explicit_zeros_are_not_entries(self):
        # x0's one stored coefficient is an explicit 0.0, which is never a
        # pivot; x1 and x2 each have one nonzero equality entry next to an
        # explicit 0.0 in the other equality row, so each covers its row
        p = build_problem(
            "maximize",
            [(0.0, 4.0), (0.0, 10.0), (0.0, 10.0)],
            [
                ([(0, 0.0), (1, 1.0), (2, 0.0)], "=", 3.0),
                ([(1, 0.0), (2, 1.0)], "=", 2.0),
            ],
            [1.0, 1.0, 1.0],
        )
        assert p.A.nnz == 5
        st = simplex._State(p, None)
        assert st.basis.tolist() == [1, 2]
        assert st.vstat[0] == simplex.AT_LOWER
        assert st.x[:3].tolist() == [0.0, 3.0, 2.0]
        sol = solve(p)
        assert sol.status == "optimal"
        assert sol.artificials == 0
        assert sol.objective_value == pytest.approx(9.0)

    @pytest.mark.parametrize(
        "pattern",
        [
            0,
            1,
            pytest.param(2, marks=pytest.mark.xfail(
                raises=SolveStatusError, strict=True,
                reason="phase 1 pivots onto a numerically singular basis; see CHANGES.md",
            )),
        ],
    )
    def test_coefficients_from_1e_6_to_1e6(self, tmp_path, pattern):
        # the one-day case A LP with its rows and columns scaled by powers of
        # ten from 1e-3 to 1e3 in a pattern-dependent cycle: the same optimum
        # (the columns are rescaled variables), coefficients over 13 decades
        p = case_lp(tmp_path, "A", days=1).problem
        m, n = p.A.shape
        r = 10.0 ** ((np.arange(m) * (pattern + 1)) % 7 - 3)
        c = 10.0 ** ((np.arange(n) * (pattern + 2)) % 7 - 3)
        A = (sp.diags(r) @ p.A @ sp.diags(c)).tocsr()
        assert abs(A.data).min() < 1e-6 and abs(A.data).max() >= 1e6
        scaled = build_problem(
            p.sense,
            np.column_stack([p.lower / c, p.upper / c]),
            CsrRows(A.indptr, A.indices, A.data, p.relations, p.rhs * r),
            p.objective * c,
            offset=p.objective_offset,
        )
        sol = solve(scaled)
        assert sol.status == "optimal"
        assert sol.objective_value == pytest.approx(highs_objective(scaled), rel=1e-9)
        assert sol.objective_value == pytest.approx(solve(p).objective_value, rel=1e-9)


class TestNumericalFailures:
    @pytest.mark.parametrize(
        "columns",
        [[[1.0, 1.0], [1.0, 1.0]], [[1.0, 0.0], [0.0, 1e-14]]],
        ids=["exactly-singular", "below-1e-13"],
    )
    def test_singular_basis_is_a_solve_status_error(self, columns):
        A = sp.csc_matrix(np.array(columns))
        with pytest.raises(SolveStatusError, match="singular"):
            simplex._BasisFactor(A).refactor(np.array([0, 1]))

    def test_unbounded_phase_1_is_a_solve_status_error(self):
        p = build_problem("minimize", [(0.0, 1.0)], [([(0, 1.0)], "=", 1.0)], [1.0])
        with pytest.raises(SolveStatusError, match="phase 1"):
            simplex._State(p, None)._phase1_unbounded()
