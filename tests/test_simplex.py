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
from pvsmooth.lp import CsrRows, LpBasis, build_problem, simplex, solve

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


def case_lp(tmp_path, label, days=3, seed=7, **constraints):
    """The LP of case ``label`` that ``pvsmooth run`` builds on the synthetic
    trace of ``seed``, with ``constraints`` over the defaults."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "weather": {"synthetic": {"days": days, "seed": seed, "variability": 0.8}},
        "constraints": constraints,
    }))
    config = load_run_config(path)
    form, _, _ = _formulate(label, config, build_power_series(config), config.battery)
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

    def test_iteration_limit(self, monkeypatch):
        # a limit below one iteration stops the solve after its first
        monkeypatch.setattr(simplex, "ITERATION_LIMIT_FACTOR", 1e-9)
        p = random_instance(np.random.default_rng(5))
        sol = solve(p)
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
            rhs_inf = float(np.max(np.abs(p.rhs), initial=0.0))
            assert sol.max_primal_residual <= 1e-7 * (1.0 + rhs_inf)
            assert sol.max_bound_violation <= 1e-9
            solved += 1
        assert solved == 30

    def test_contradictory_rows_are_infeasible(self):
        rng = np.random.default_rng(77)
        for _ in range(10):
            p = random_instance(rng)
            n = p.n_vars
            a = rng.integers(1, 5, size=n).astype(float)
            A = sp.vstack([p.A, sp.csr_matrix([a, a])], format="csr")
            rows = CsrRows(A.indptr, A.indices, A.data, p.relations + ("<=", ">="),
                           [*p.rhs, -1.0, 1.0])
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


    @pytest.mark.parametrize("trigger", [1, 2, 3, 4])
    def test_zero_steps_switch_to_bland(self, monkeypatch, trigger):
        # pricing takes Bland's rule after `trigger` steps of length zero in
        # a row, and Dantzig's again after any step of positive length. Six
        # rows through the origin, where the start point sits: Dantzig's rule
        # takes six steps of length zero there before one leaves it
        cone = [[-1, -2, 3, -2], [0, 3, -3, -2], [3, -3, 0, 0],
                [0, 1, -2, 1], [-3, -3, 2, -1], [2, 0, -1, 1]]
        p = build_problem(
            "minimize",
            [(0.0, 10.0)] * 4,
            [([(j, float(a)) for j, a in enumerate(row) if a], "<=", 0.0) for row in cone]
            + [([(j, 1.0) for j in range(4)], "<=", 1.0)],
            [-5.0, 1.0, -3.0, -3.0],
        )
        monkeypatch.setattr(simplex, "BLAND_TRIGGER", trigger)
        choose = simplex._State._choose_entering
        calls = []  # the rule and the point at each pricing

        def recording(self, d, bland, otol):
            calls.append((bland, self.x.copy()))
            return choose(self, d, bland, otol)

        monkeypatch.setattr(simplex._State, "_choose_entering", recording)
        sol = solve(p)
        assert sol.status == "optimal"
        assert sol.objective_value == pytest.approx(vertex_enumerate(p)[0], abs=1e-9)
        # the start is feasible, so every pricing is phase 2's
        stall, expected = 0, []
        for (_, x), (_, x_next) in zip(calls, calls[1:]):
            expected.append(stall >= trigger)
            stall = stall + 1 if np.array_equal(x, x_next) else 0
        expected.append(stall >= trigger)
        rules = [bland for bland, _ in calls]
        assert rules == expected
        # both switches happen: to Bland's rule, and back after a positive step
        assert [True, False] in [rules[k : k + 2] for k in range(len(rules) - 1)]


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
            assert sol.iterations <= simplex.ITERATION_LIMIT_FACTOR * (p.n_rows + p.n_vars)

    def test_equality_logicals_leaving_in_phase_2_keep_the_eta_file_bounded(self, monkeypatch):
        # the cyclic rows x_i - x_(i+1 mod m) = 0 hold at the start point and
        # give every column two equality entries, so no crash column covers
        # a row: each row's logical sits basic at zero, inside its bounds
        # [0, 0], phase 1 ends at once and phase 2's ratio test pivots out
        # all but the one on a redundant row
        m = 3 * simplex.REFACTOR_INTERVAL
        rows = [([(i, 1.0), ((i + 1) % m, -1.0)], "=", 0.0) for i in range(m)]
        p = build_problem("maximize", [(0.0, 1.0)] * m, rows, [1.0] * m)
        longest = pushes = 0
        push_eta = simplex._BasisFactor.push_eta

        def recording_push(factor, r, w):
            nonlocal longest, pushes
            push_eta(factor, r, w)
            pushes += 1
            longest = max(longest, factor.n_etas)

        monkeypatch.setattr(simplex._BasisFactor, "push_eta", recording_push)
        sol = solve(p)
        assert sol.status == "optimal"
        assert sol.objective_value == pytest.approx(m)
        assert sol.infeasible_rows == 0
        assert sol.phase1_iterations == 0
        assert len(sol.basis.tight) == m - 1
        assert pushes > simplex.REFACTOR_INTERVAL
        assert longest == simplex.REFACTOR_INTERVAL

    def test_pinned_charge_starts_like_the_free_one(self, tmp_path):
        # a pinned E_b(0) has two equality entries, INITSOC and SOC(1); the
        # crash covers the SOC chain from its last E_b back to E_b(0), so
        # case A starts with the infeasible rows of the unpinned case alone
        # and the baseline with none
        sols = {}
        for label in ("A", "baseline"):
            p = case_lp(tmp_path, label, initial_soc_fraction=0.5).problem
            sols[label] = solve(p)
            assert sols[label].status == "optimal"
            assert sols[label].objective_value == pytest.approx(highs_objective(p), rel=1e-9)
        assert sols["A"].infeasible_rows == 106
        assert sols["baseline"].infeasible_rows == 0
        assert sols["baseline"].phase1_iterations == 0


class TestPhaseOne:
    def test_infeasible_basics_stop_at_the_bound_they_violate(self):
        # x0 - x1 >= 2, 2 x0 >= 4 and x1 >= 1 all fail at x = 0, so each row
        # starts on its logical at 2, 4 and 1, above its bounds (-inf, 0]
        p = build_problem(
            "minimize",
            [(0.0, 10.0), (0.0, 10.0)],
            [([(0, 1.0), (1, -1.0)], ">=", 2.0), ([(0, 2.0)], ">=", 4.0), ([(1, 1.0)], ">=", 1.0)],
            [1.0, 1.0],
        )
        n = p.n_vars
        st = simplex._State(p)
        assert st.basis.tolist() == [n, n + 1, n + 2]
        assert st.x[n:].tolist() == [2.0, 4.0, 1.0] and st.infeas.tolist() == [1.0, 1.0, 1.0]
        # x0 enters and takes the logicals of r0 and r1 to 0 at once: r1's,
        # the larger |w|, leaves at 0, the bound it violated, and r0's stays
        # basic at 0, feasible from then on
        st.max_iterations = 1
        assert st.optimize(phase=1) == "iteration-limit"
        assert st.basis.tolist() == [n, 0, n + 2]
        assert st.vstat[n + 1] == simplex.AT_UPPER and st.x[n + 1] == 0.0
        assert st.x[n] == 0.0 and st.infeas.tolist() == [0.0, 0.0, 1.0]
        # x1 enters next, which raises r0's logical: held to its own bounds
        # now, it stops the step at length zero and leaves at 0
        st.max_iterations = 2
        assert st.optimize(phase=1) == "iteration-limit"
        assert st.basis.tolist() == [1, 0, n + 2]
        assert st.vstat[n] == simplex.AT_UPPER and st.x[n] == 0.0 and st.x[1] == 0.0
        st.max_iterations = 10
        assert st.optimize(phase=1) == "optimal"
        assert st.iterations == 3 and not st.infeas.any()
        np.testing.assert_allclose(st.x[:n], [3.0, 1.0])
        sol = solve(p)
        assert sol.status == "optimal" and sol.infeasible_rows == 3
        assert sol.objective_value == pytest.approx(highs_objective(p), abs=1e-12)


class TestCrashBasis:
    def test_only_the_ramp_rows_the_raw_pv_breaks_start_infeasible(self, tmp_path):
        form = case_lp(tmp_path, "A")
        p = form.problem
        x = np.zeros(p.n_vars)
        x[form.columns["p_grid"]] = form.p_pv
        ramp = np.concatenate([rows_named(p, "RUP"), rows_named(p, "RDN")])
        broken = int(np.count_nonzero((p.A @ x)[ramp] > p.rhs[ramp]))
        assert broken == 106
        sol = solve(p)
        assert sol.status == "optimal"
        assert sol.infeasible_rows == broken
        assert sol.iterations > sol.phase1_iterations > 0

    def test_baseline_starts_feasible(self, tmp_path):
        sol = solve(case_lp(tmp_path, "baseline").problem)
        assert sol.status == "optimal"
        assert sol.infeasible_rows == 0
        assert sol.phase1_iterations == 0

    @pytest.mark.parametrize("days, seed", [(3, 7), (3, 8), (14, 7)])
    def test_baseline_seats_its_battery_power_and_ends_at_once(self, tmp_path, days, seed):
        # every P_b(k) is free and blocked by the zero slack of its PBU or
        # PBL row while P_bMAX is 0; seated in the crash, each saves the
        # zero-step pivot that Dantzig pricing would spend on it
        p = case_lp(tmp_path, "baseline", days=days, seed=seed).problem
        sol = solve(p)
        assert sol.status == "optimal"
        assert sol.infeasible_rows == 0
        assert sol.iterations <= 2
        assert sol.objective_value == pytest.approx(highs_objective(p), rel=1e-9)

    def test_free_column_blocked_by_a_zero_slack_is_seated(self):
        # x0 is free and its cost pushes it up; the zero slack of r0
        # (x0 - x1 <= 0 with x1 at 0) blocks that, so x0 takes the slack's
        # place in r0, and r1, which does not block x0 going up, keeps its slack
        p = build_problem(
            "maximize",
            [(-INF, INF), (0.0, INF)],
            [([(0, 1.0), (1, -1.0)], "<=", 0.0), ([(0, -1.0), (1, -1.0)], "<=", 0.0)],
            [1.0, -2.0],
        )
        st = simplex._State(p)
        assert st.basis.tolist() == [0, 3]
        assert st.vstat[2] == simplex.AT_LOWER
        sol = solve(p)
        assert sol.status == "optimal"
        assert sol.iterations == 0
        assert sol.objective_value == 0.0

    @pytest.mark.parametrize(
        "rows",
        [
            [([(0, 1.0), (1, -2.0)], "<=", 0.0)],
            [([(0, 1.0), (1, -1.0)], "<=", 0.0), ([(0, 2.0), (1, -1.0)], "<=", 5.0)],
        ],
        ids=["larger-in-the-row", "larger-in-the-column"],
    )
    def test_free_column_stays_nonbasic_unless_its_entry_is_the_largest(self, rows):
        # x0's blocking entry in r0 is 1, and a 2 elsewhere in r0 or in x0's
        # column keeps it out of the basis; the slack of r0 stays basic
        p = build_problem("maximize", [(-INF, INF), (0.0, INF)], rows, [1.0, -3.0])
        st = simplex._State(p)
        assert st.vstat[0] == simplex.FREE
        assert st.basis[0] == p.n_vars
        sol = solve(p)
        assert sol.status == "optimal"
        assert sol.objective_value == pytest.approx(highs_objective(p), abs=1e-12)

    def test_grid_cap_below_the_pv_peak_leaves_the_balance_row_on_its_logical(self, tmp_path):
        # where the PV is above the cap, P_G at the PV output would break its
        # bound, so the balance row starts on its logical at the residual
        # P_PV - cap, above the logical's bounds [0, 0]
        cap = 6000.0
        form = case_lp(tmp_path, "A", grid_cap=cap)
        p = form.problem
        over = form.p_pv > cap
        assert over.any() and not over.all()
        st = simplex._State(p)
        bal = rows_named(p, "BAL")
        assert (st.basis[bal[over]] == p.n_vars + bal[over]).all()
        assert (st.basis[bal[~over]] < p.n_vars).all()
        assert (st.infeas[bal[over]] == 1.0).all() and not st.infeas[bal[~over]].any()
        p_grid = np.arange(p.n_vars)[form.columns["p_grid"]]
        assert (st.vstat[p_grid[over]] == simplex.AT_LOWER).all()
        assert (st.vstat[p_grid[~over]] == simplex.BASIC).all()
        sol = solve(p)
        assert sol.status == "optimal"
        assert sol.objective_value == pytest.approx(highs_objective(p), rel=1e-9)

    @pytest.mark.parametrize("other", [1.0, 0.25], ids=["largest-elsewhere", "largest-here"])
    def test_pivot_must_be_the_columns_largest_entry(self, other):
        # x0's only equality entry is 0.5; a larger entry elsewhere keeps
        # it out of the crash, and the row starts on its logical at the
        # residual 1, above the logical's bounds [0, 0]
        p = build_problem(
            "minimize",
            [(0.0, 10.0)],
            [([(0, 0.5)], "=", 1.0), ([(0, other)], "<=", 5.0)],
            [1.0],
        )
        st = simplex._State(p)
        crashed = other < 0.5
        assert (st.vstat[0] == simplex.BASIC) == crashed
        assert (st.basis[0] == p.n_vars) == (not crashed)
        if crashed:
            assert st.x[0] == 2.0
            assert not st.infeas.any()
        else:
            assert st.x[p.n_vars] == 1.0 and st.infeas[0] == 1.0
        sol = solve(p)
        assert sol.status == "optimal"
        assert sol.x[0] == pytest.approx(2.0)

    def test_pivot_below_pivot_tol_is_refused(self):
        tiny = 0.1 * simplex.PIVOT_TOL
        p = build_problem("minimize", [(0.0, 1.0)], [([(0, tiny)], "=", 0.0)], [1.0])
        st = simplex._State(p)
        assert st.vstat[0] == simplex.AT_LOWER
        assert st.basis[0] == p.n_vars
        sol = solve(p)
        assert sol.status == "optimal" and sol.x[0] == 0.0

    def test_chain_is_covered_from_its_far_end(self):
        # x_0 is pinned by r0 and each other row is x_(i-1) - x_i = 0, so
        # every column but the last has two equality entries; the crash
        # covers the last row with x_(k-1), then walks the chain back to r0
        k = 8
        rows = [([(0, 1.0)], "=", 1.0)]
        rows += [([(i - 1, 1.0), (i, -1.0)], "=", 0.0) for i in range(1, k)]
        p = build_problem("minimize", [(0.0, 2.0)] * k, rows, [1.0] * k)
        st = simplex._State(p)
        assert sorted(st.basis.tolist()) == list(range(k))
        assert not st.infeas.any()
        assert st.x[:k].tolist() == [1.0] * k
        # each equality row's logical is nonbasic, fixed at 0
        assert st.x[k:].tolist() == [0.0] * k and (st.vstat[k:] == simplex.FIXED).all()
        sol = solve(p)
        assert sol.status == "optimal"
        assert sol.infeasible_rows == 0
        assert sol.iterations == 0
        assert sol.objective_value == k

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
        st = simplex._State(p)
        assert st.basis.tolist() == [1, 2]
        assert st.vstat[0] == simplex.AT_LOWER
        assert st.x[:3].tolist() == [0.0, 3.0, 2.0]
        sol = solve(p)
        assert sol.status == "optimal"
        assert sol.infeasible_rows == 0
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


class TestWarmStart:
    def test_resolve_from_its_own_basis_takes_no_iteration(self, tmp_path):
        p = case_lp(tmp_path, "A", days=1).problem
        cold = solve(p)
        assert cold.status == "optimal" and not cold.warm_start
        assert len(cold.basis.basic) == len(cold.basis.tight)
        warm = solve(p, start=cold.basis)
        assert warm.status == "optimal" and warm.warm_start
        assert warm.iterations == warm.phase1_iterations == warm.infeasible_rows == 0
        np.testing.assert_allclose(warm.x, cold.x, rtol=1e-12, atol=1e-9)
        assert warm.basis == cold.basis

    def test_each_case_from_the_case_it_extends_skips_phase_1(self, tmp_path):
        lps = {label: case_lp(tmp_path, label, days=1).problem for label in "ABCD"}
        basis = {"A": solve(lps["A"]).basis}
        for label, parent in (("B", "A"), ("C", "A"), ("D", "C")):
            sol = solve(lps[label], start=basis[parent])
            assert sol.status == "optimal" and sol.warm_start, label
            assert sol.phase1_iterations == sol.infeasible_rows == 0, label
            assert sol.objective_value == pytest.approx(highs_objective(lps[label]), rel=1e-9)
            basis[label] = sol.basis

    def assert_falls_back_to_the_crash(self, problem, start):
        cold = solve(problem)
        sol = solve(problem, start=start)
        assert not sol.warm_start
        assert sol.status == "optimal"
        assert (sol.iterations, sol.phase1_iterations, sol.infeasible_rows) == (
            cold.iterations, cold.phase1_iterations, cold.infeasible_rows,
        )
        np.testing.assert_array_equal(sol.x, cold.x)
        assert sol.objective_value == pytest.approx(highs_objective(problem), rel=1e-9)

    def test_baseline_basis_breaks_the_ramp_rows_of_case_a(self, tmp_path):
        # every name of the baseline's basis is in case A and the count
        # matches, since A's extra ramp rows start on their slacks; those
        # slacks come out negative wherever the baseline's injection jumps
        a = case_lp(tmp_path, "A", days=1).problem
        start = solve(case_lp(tmp_path, "baseline", days=1).problem).basis
        assert set(start.basic) <= set(a.col_names)
        assert set(start.tight) <= set(a.row_names)
        assert len(start.basic) == len(start.tight)
        self.assert_falls_back_to_the_crash(a, start)

    def test_wrong_basic_count_falls_back(self, tmp_path):
        p = case_lp(tmp_path, "A", days=1).problem
        own = solve(p).basis
        self.assert_falls_back_to_the_crash(p, LpBasis(own.basic[1:], own.tight, own.at_upper))

    def test_unknown_names_fall_back(self, tmp_path):
        p = case_lp(tmp_path, "A", days=1).problem
        own = solve(p).basis
        start = LpBasis(own.basic + ("nowhere",), own.tight + ("NOROW",), own.at_upper)
        self.assert_falls_back_to_the_crash(p, start)

    def test_singular_start_falls_back(self):
        p = build_problem(
            "maximize",
            [(0.0, 3.0), (0.0, 3.0)],
            [([(0, 1.0), (1, 1.0)], "<=", 4.0), ([(0, 1.0), (1, 1.0)], ">=", 1.0)],
            [1.0, 2.0],
        )
        self.assert_falls_back_to_the_crash(p, LpBasis(("x0", "x1"), ("r0", "r1"), ()))

    def test_equality_row_with_its_logical_basic_at_zero(self):
        # r1 is twice r0, so r0 keeps its logical basic at zero: r0 is not
        # tight, and a start from that basis carries the logical along,
        # inside its bounds [0, 0]
        p = build_problem(
            "maximize",
            [(0.0, 3.0), (0.0, 3.0)],
            [([(0, 1.0), (1, 1.0)], "=", 2.0), ([(0, 2.0), (1, 2.0)], "=", 4.0)],
            [1.0, 2.0],
        )
        cold = solve(p)
        assert cold.basis == LpBasis(("x1",), ("r1",), ())
        sol = solve(p, start=cold.basis)
        assert sol.status == "optimal" and sol.warm_start
        assert sol.infeasible_rows == 0
        assert sol.iterations == sol.phase1_iterations == 0
        np.testing.assert_allclose(sol.x, [0.0, 2.0], atol=1e-12)

    def test_nonbasic_columns_start_at_the_bound_the_basis_names(self):
        # x0 and x1 are both at their upper bound in the optimum; a start
        # that puts only x1 there takes one bound flip to reach it
        p = build_problem(
            "maximize",
            [(0.0, 1.0), (0.0, 1.0)],
            [([(0, 1.0), (1, 1.0)], "<=", 2.0)],
            [1.0, 2.0],
        )
        cold = solve(p)
        assert cold.basis == LpBasis((), (), ("x0", "x1"))
        assert solve(p, start=cold.basis).iterations == 0
        sol = solve(p, start=LpBasis((), (), ("x1",)))
        assert sol.warm_start and sol.iterations == 1
        np.testing.assert_allclose(sol.x, [1.0, 1.0])

    def test_new_rows_start_on_their_logicals(self):
        # a row the start does not know is not tight, so its slack is basic
        p = build_problem(
            "maximize",
            [(0.0, 1.0), (0.0, 1.0)],
            [([(0, 1.0), (1, 1.0)], "<=", 2.0)],
            [1.0, 2.0],
        )
        extended = build_problem(
            "maximize",
            [(0.0, 1.0), (0.0, 1.0)],
            [([(0, 1.0), (1, 1.0)], "<=", 2.0), ([(0, 1.0)], "<=", 0.5)],
            [1.0, 2.0],
        )
        sol = solve(extended, start=solve(p).basis)
        assert sol.warm_start is False  # x0 = 1 breaks the new row
        np.testing.assert_allclose(sol.x, [0.5, 1.0])
        loose = build_problem(
            "maximize",
            [(0.0, 1.0), (0.0, 1.0)],
            [([(0, 1.0), (1, 1.0)], "<=", 2.0), ([(0, 1.0)], "<=", 5.0)],
            [1.0, 2.0],
        )
        sol = solve(loose, start=solve(p).basis)
        assert sol.warm_start and sol.iterations == 0
        assert sol.basis.tight == ()
        np.testing.assert_allclose(sol.x, [1.0, 1.0])


class TestBasisFactor:
    def test_ftran_and_btran_match_a_dense_solve_after_every_pivot(self):
        # [I | N] starts on the identity basis; each pivot enters a random
        # nonbasic column on its largest |w| row, except that pivot 10 goes
        # back to pivot 9's row, so that row appears twice in the eta file
        rng = np.random.default_rng(3)
        m = 40
        N = sp.random(m, 3 * m, density=0.15, random_state=rng, format="csc")
        A = sp.hstack([sp.identity(m, format="csc"), N], format="csc")
        basis = np.arange(m)
        factor = simplex._BasisFactor(A)
        factor.refactor(basis)
        dense = A.toarray()
        rows = []
        for pivot in range(simplex.REFACTOR_INTERVAL - 1):
            nonbasic = np.setdiff1d(np.arange(A.shape[1]), basis)
            if pivot == 10:
                r = rows[-1]
                ws = {int(q): factor.ftran(factor.column(q)) for q in nonbasic}
                q = max(ws, key=lambda j: abs(ws[j][r]))
                w = ws[q]
            else:
                q = int(rng.choice(nonbasic))
                w = factor.ftran(factor.column(q))
                r = int(np.argmax(np.abs(w)))
            factor.push_eta(r, w)
            basis[r] = q
            rows.append(r)
            B = dense[:, basis]
            for _ in range(2):
                v = rng.standard_normal(m)
                for got, want in (
                    (factor.ftran(v), np.linalg.solve(B, v)),
                    (factor.btran(v), np.linalg.solve(B.T, v)),
                ):
                    assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want)), pivot
        assert factor.n_etas == simplex.REFACTOR_INTERVAL - 1
        assert rows[10] == rows[9]


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

    def test_roundoff_pivot_to_a_structurally_singular_basis_is_refused(self, monkeypatch):
        # column 2 is e_0, so in place of e_1 it leaves row 1 empty; its w[1]
        # of 1e-12 can only be roundoff, and the eta it leaves grows past
        # 1 / PIVOT_TOL, so the refactor checks the structure and raises
        # before SuperLU, which can crash on such a matrix, sees it
        A = sp.csc_matrix(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]))
        factor = simplex._BasisFactor(A)
        factor.refactor(np.array([0, 1]))
        factor.push_eta(1, np.array([1.0, 1e-12]))
        monkeypatch.setattr(simplex, "splu", lambda *args, **kwargs: pytest.fail("splu called"))
        with pytest.raises(SolveStatusError, match="structurally singular"):
            factor.refactor(np.array([0, 2]))

    def test_unbounded_phase_1_is_a_solve_status_error(self, monkeypatch):
        # free x0 sits in both equality rows, so the crash leaves each row on
        # its logical, at the residual 1 above its bounds [0, 0], and x0
        # prices in phase 1; a zero FTRAN column gives its ratio test no row
        # and its flip no bound, as only corrupt data can
        rows = [([(0, 1.0), (1, 1.0)], "=", 1.0), ([(0, 1.0), (1, -1.0)], "=", 1.0)]
        p = build_problem("minimize", [(-INF, INF), (0.0, INF)], rows, [0.0, 0.0])
        st = simplex._State(p)
        assert st.basis.tolist() == [2, 3] and st.infeas.tolist() == [1.0, 1.0]
        assert st.vstat[0] == simplex.FREE and st._reduced_costs(phase=1)[0] != 0.0
        monkeypatch.setattr(simplex._BasisFactor, "ftran", lambda self, v: np.zeros_like(v))
        with pytest.raises(SolveStatusError, match="phase 1"):
            solve(p)
