import numpy as np
import pytest

from scalarplan.errors import SingularMatrix
from scalarplan.linalg import (
    EQUAL,
    GREATER,
    INFEASIBLE,
    LESS,
    OPTIMAL,
    UNBOUNDED,
    LinearProgram,
    check_lp_solution,
    solve_linear_system,
    solve_lp,
)


class TestSolveLinearSystem:
    def test_identity(self):
        x = solve_linear_system(np.eye(3), np.array([1.0, 2.0, 3.0]))
        assert np.allclose(x, [1, 2, 3], atol=1e-12)

    def test_diagonal(self):
        x = solve_linear_system(np.array([[2.0, 0.0], [0.0, 4.0]]),
                                np.array([2.0, 8.0]))
        assert np.allclose(x, [1, 2], atol=1e-12)

    def test_random_well_conditioned_multiply_back(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(5, 5)) + 5 * np.eye(5)
        b = rng.normal(size=5)
        x = solve_linear_system(a, b)
        assert np.max(np.abs(a @ x - b)) <= 1e-9 * (1 + np.max(np.abs(b)))

    def test_matrix_rhs(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=(4, 4)) + 4 * np.eye(4)
        b = rng.normal(size=(4, 3))
        x = solve_linear_system(a, b)
        assert np.max(np.abs(a @ x - b)) <= 1e-9 * (1 + np.max(np.abs(b)))

    def test_singular_raises(self):
        with pytest.raises(SingularMatrix):
            solve_linear_system(np.array([[1.0, 1.0], [1.0, 1.0]]),
                                np.array([1.0, 2.0]))

    def test_residual_on_batch_of_random_systems(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            k = int(rng.integers(2, 12))
            a = rng.normal(size=(k, k)) + k * np.eye(k)
            b = rng.normal(size=k) * 10
            x = solve_linear_system(a, b)
            assert np.max(np.abs(a @ x - b)) <= 1e-9 * (1 + np.max(np.abs(b)))


class TestSolveLp:
    def test_min_with_lower_bound_row(self):
        lp = LinearProgram(1, sense="min", objective=np.array([1.0]))
        lp.add_row([1.0], GREATER, 3.0)
        sol = solve_lp(lp)
        assert sol.status == OPTIMAL
        assert sol.objective == pytest.approx(3.0, abs=1e-9)
        assert sol.values[0] == pytest.approx(3.0, abs=1e-9)

    def test_max_vertex(self):
        # hand enumeration of the vertices of {x+2y<=4, x<=2, x,y>=0}:
        # (0,0) -> 0, (2,0) -> 2, (2,1) -> 3, (0,2) -> 2; optimum 3 at (2,1)
        lp = LinearProgram(2, sense="max", objective=np.array([1.0, 1.0]))
        lp.add_row([1.0, 2.0], LESS, 4.0)
        lp.add_row([1.0, 0.0], LESS, 2.0)
        sol = solve_lp(lp)
        assert sol.status == OPTIMAL
        assert sol.objective == pytest.approx(3.0, abs=1e-9)
        assert np.allclose(sol.values, [2.0, 1.0], atol=1e-9)

    def test_feasibility_sign_contradiction(self):
        lp = LinearProgram(2, sense="min", objective=np.zeros(2))
        lp.add_row([1.0, 1.0], EQUAL, 1.0)
        lp.add_row([1.0, -1.0], EQUAL, 3.0)   # forces y = -1 < 0
        assert solve_lp(lp).status == INFEASIBLE

    def test_feasibility_returns_a_point(self):
        lp = LinearProgram(3, sense="min", objective=np.zeros(3))
        lp.add_row([1.0, 1.0, 1.0], EQUAL, 1.0)
        lp.add_row([1.0, 0.0, 0.0], LESS, 0.25)
        sol = solve_lp(lp)
        assert sol.status == OPTIMAL
        assert check_lp_solution(lp, sol) <= 1e-7

    def test_lp_without_rows(self):
        # the general two-phase path: only the bounds x >= 0 and ``upper``
        # constrain, so an improving direction with no cap is unbounded
        for sense, c, want in (("min", [0.0, 2.0], OPTIMAL),
                               ("min", [0.0, 0.0], OPTIMAL),
                               ("min", [1.0, -1.0], UNBOUNDED),
                               ("max", [1.0, 0.0], UNBOUNDED),
                               ("max", [-1.0, -3.0], OPTIMAL)):
            sol = solve_lp(LinearProgram(2, sense=sense, objective=np.array(c)))
            assert sol.status == want, (sense, c)
            if want == OPTIMAL:
                assert sol.values.tolist() == [0.0, 0.0] and sol.objective == 0.0
        capped = LinearProgram(2, sense="max", objective=np.array([1.0, 0.0]),
                               upper=np.array([4.0, np.inf]))
        sol = solve_lp(capped)
        assert sol.status == OPTIMAL and sol.values.tolist() == [4.0, 0.0]

    def test_unbounded(self):
        lp = LinearProgram(1, sense="max", objective=np.array([1.0]))
        lp.add_row([-1.0], LESS, 0.0)
        assert solve_lp(lp).status == UNBOUNDED

    def test_equality_and_upper_bounds(self):
        lp = LinearProgram(2, sense="min", objective=np.array([1.0, 2.0]),
                           upper=np.array([5.0, np.inf]))
        lp.add_row([1.0, 1.0], EQUAL, 6.0)
        sol = solve_lp(lp)
        assert sol.status == OPTIMAL
        assert sol.objective == pytest.approx(5.0 + 2.0, abs=1e-8)

    def test_degenerate_random_lps_terminate_and_verify(self):
        # many redundant/degenerate rows; Bland's rule must still terminate
        rng = np.random.default_rng(11)
        for trial in range(60):
            n = int(rng.integers(2, 51))
            m = int(rng.integers(1, 16))
            a = rng.integers(-3, 4, size=(m, n)).astype(float)
            x_feas = rng.integers(0, 3, size=n).astype(float)
            rhs = a @ x_feas
            lp = LinearProgram(n, sense="min", objective=rng.integers(0, 5, size=n).astype(float))
            for i in range(m):
                rel = (LESS, EQUAL, GREATER)[int(rng.integers(0, 3))]
                slack = {LESS: 1.0, EQUAL: 0.0, GREATER: -1.0}[rel] * float(rng.integers(0, 2))
                lp.add_row(a[i], rel, float(rhs[i] + slack))
            sol = solve_lp(lp)
            assert sol.status == OPTIMAL, f"trial {trial}: {sol.status}"
            assert check_lp_solution(lp, sol) <= 1e-7
            # weak-duality spot check: random feasible perturbations never beat it
            for _ in range(10):
                probe = np.maximum(0.0, x_feas + rng.normal(size=n) * 0.2)
                ok = all(
                    (c @ probe <= r + 1e-9 if rel == LESS else
                     c @ probe >= r - 1e-9 if rel == GREATER else
                     abs(c @ probe - r) <= 1e-9)
                    for c, rel, r in lp.rows)
                if ok:
                    assert lp.objective @ probe >= sol.objective - 1e-7

    def test_reported_objective_bounds_feasible_points(self):
        # minimise over a box-bounded polytope, then probe 100 feasible points
        rng = np.random.default_rng(23)
        lp = LinearProgram(4, sense="min",
                           objective=np.array([3.0, 1.0, 4.0, 1.0]))
        lp.add_row([1.0, 1.0, 1.0, 1.0], GREATER, 2.0)
        lp.add_row([1.0, 2.0, 0.0, 1.0], LESS, 8.0)
        sol = solve_lp(lp)
        assert sol.status == OPTIMAL
        for _ in range(100):
            probe = rng.uniform(0, 2, size=4)
            if probe.sum() >= 2.0 and probe @ [1, 2, 0, 1] <= 8.0:
                assert lp.objective @ probe >= sol.objective - 1e-9
