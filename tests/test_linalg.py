import tracemalloc

import numpy as np
import pytest

from conftest import lp_of, random_model, wide_outcome_model
from oracles import reference_solve_lp
from scalarplan import extract, scalarise
from scalarplan.domains import GeneratorSpec, generate
from scalarplan.errors import NumericalBreakdown, SingularMatrix
from scalarplan.extract import build_om_lp
from scalarplan.linalg import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    LinearProgram,
    LpSolution,
    _verify,
    solve_linear_system,
    solve_lp,
)
from scalarplan.model import finite_penalty_transform, reachable_states
from scalarplan.solver import oracle_solve, solve_cssp


def violation(lp, x):
    """Worst violation of the rows and of ``x >= 0`` at ``x``."""
    excess = lp.rows @ x - lp.rhs
    return max(np.max(np.abs(excess[lp.equal]), initial=0.0),
               np.max(excess[~lp.equal], initial=0.0), np.max(-x, initial=0.0))


def solve_like_reference(lp):
    """``solve_lp``'s solution, asserted bit-identical to the full-tableau
    reference's, with the rows and right-hand sides left as they were."""
    block = (lp.rows.tobytes(), lp.rhs.tobytes(), lp.equal.tobytes())
    want = reference_solve_lp(lp)
    got = solve_lp(lp)
    assert (lp.rows.tobytes(), lp.rhs.tobytes(), lp.equal.tobytes()) == block
    assert (got.status, got.pivots, got.objective) == \
        (want.status, want.pivots, want.objective)
    assert (got.values is None) == (want.values is None)
    if got.values is not None:
        assert got.values.tobytes() == want.values.tobytes()
    return got


def tyres():
    return finite_penalty_transform(generate(GeneratorSpec("tireworld", n=20, d=15, c=3)),
                                    np.array([500.0, 1.0, 1.0, 1.0]))


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
    def test_max_vertex(self):
        # hand enumeration of the vertices of {x+2y<=4, x<=2, x,y>=0}:
        # (0,0) -> 0, (2,0) -> 2, (2,1) -> 3, (0,2) -> 2; optimum 3 at (2,1)
        lp = lp_of("max", [1.0, 1.0], [[1.0, 2.0], [1.0, 0.0]], [4.0, 2.0], [False, False])
        sol = solve_lp(lp)
        assert sol.status == OPTIMAL
        assert sol.objective == pytest.approx(3.0, abs=1e-9)
        assert np.allclose(sol.values, [2.0, 1.0], atol=1e-9)

    def test_feasibility_sign_contradiction(self):
        # x + y = 1 and x - y = 3 force y = -1 < 0
        lp = lp_of("min", [0.0, 0.0], [[1.0, 1.0], [1.0, -1.0]], [1.0, 3.0], [True, True])
        assert solve_lp(lp).status == INFEASIBLE

    def test_feasibility_returns_a_point(self):
        lp = lp_of("min", [0.0, 0.0, 0.0], [[1.0, 1.0, 1.0], [1.0, 0.0, 0.0]],
                   [1.0, 0.25], [True, False])
        sol = solve_lp(lp)
        assert sol.status == OPTIMAL
        assert violation(lp, sol.values) <= 1e-7

    def test_lp_without_rows(self):
        # the general two-phase path: only the bounds x >= 0 constrain, so an
        # improving direction is unbounded
        for sense, c, want in (("min", [0.0, 2.0], OPTIMAL),
                               ("min", [0.0, 0.0], OPTIMAL),
                               ("min", [1.0, -1.0], UNBOUNDED),
                               ("max", [1.0, 0.0], UNBOUNDED),
                               ("max", [-1.0, -3.0], OPTIMAL)):
            sol = solve_lp(lp_of(sense, c))
            assert sol.status == want, (sense, c)
            if want == OPTIMAL:
                assert sol.values.tolist() == [0.0, 0.0] and sol.objective == 0.0

    def test_unbounded(self):
        lp = lp_of("max", [1.0], [[-1.0]], [0.0], [False])
        assert solve_lp(lp).status == UNBOUNDED

    def test_equality_and_upper_bounds(self):
        # x0 + x1 = 6 with x0 <= 5: the cheaper x0 takes 5
        lp = lp_of("min", [1.0, 2.0], [[1.0, 1.0], [1.0, 0.0]], [6.0, 5.0], [True, False])
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
            # rows through x_feas, each turned to a nonnegative right-hand side;
            # some of the <= rows get one unit of slack
            sign = np.where(a @ x_feas < 0, -1.0, 1.0)
            a *= sign[:, None]
            equal = rng.integers(0, 2, size=m).astype(bool)
            rhs = a @ x_feas + ~equal * rng.integers(0, 2, size=m)
            lp = LinearProgram("min", rng.integers(0, 5, size=n).astype(float), a, rhs, equal)
            sol = solve_like_reference(lp)
            assert sol.status == OPTIMAL, f"trial {trial}: {sol.status}"
            assert violation(lp, sol.values) <= 1e-7
            # weak-duality spot check: random feasible perturbations never beat it
            for _ in range(10):
                probe = np.maximum(0.0, x_feas + rng.normal(size=n) * 0.2)
                if violation(lp, probe) <= 1e-9:
                    assert lp.objective @ probe >= sol.objective - 1e-7

    def test_reported_objective_bounds_feasible_points(self):
        # minimise over {sum x >= 2, x0 + 2 x1 + x3 <= 8, x >= 0}, the first
        # row written as an equality with its own surplus column x4, then
        # probe 100 feasible points
        rng = np.random.default_rng(23)
        lp = lp_of("min", [3.0, 1.0, 4.0, 1.0, 0.0],
                   [[1.0, 1.0, 1.0, 1.0, -1.0], [1.0, 2.0, 0.0, 1.0, 0.0]],
                   [2.0, 8.0], [True, False])
        sol = solve_lp(lp)
        assert sol.status == OPTIMAL
        for _ in range(100):
            probe = rng.uniform(0, 2, size=4)
            if probe.sum() >= 2.0 and probe @ [1, 2, 0, 1] <= 8.0:
                assert lp.objective[:4] @ probe >= sol.objective - 1e-9

    def test_non_finite_coefficients_are_rejected(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="coefficients"):
                lp_of("min", [0.0, 0.0], [[1.0, bad]], [3.0], [False])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_objective_is_rejected(self, bad):
        # a NaN objective used to come back Optimal with objective NaN, and an
        # infinite one Optimal with objective inf
        for sense in ("min", "max"):
            with pytest.raises(ValueError, match="objective"):
                lp_of(sense, [bad, 1.0], [[1.0, 1.0]], [1.0], [False])

    @pytest.mark.parametrize("rhs", [-1.0, -1e-300, np.nan, np.inf])
    def test_negative_or_non_finite_rhs_is_rejected(self, rhs):
        with pytest.raises(ValueError, match="rhs"):
            lp_of("min", [1.0, 1.0], [[1.0, 1.0]], [rhs], [True])

    def test_non_finite_activity_is_an_infinite_violation(self):
        # rows changed past the constructor's check: NaN must not hide in max()
        lp = lp_of("min", [0.0, 0.0], [[1.0, 1.0], [1.0, 0.0]], [1.0, 3.0], [True, False])
        _verify(lp, LpSolution(OPTIMAL, np.array([1.0, 0.0]), 0.0))
        lp.rows[1, 1] = np.nan
        with pytest.raises(NumericalBreakdown):
            _verify(lp, LpSolution(OPTIMAL, np.array([1.0, 0.0]), 0.0))
        lp.rows[1, 1] = 0.0
        with pytest.raises(NumericalBreakdown):
            _verify(lp, LpSolution(OPTIMAL, np.array([np.nan, 0.0]), 0.0))

    def test_large_rows_are_measured_against_their_own_size(self):
        # a row of size 2e7 that misses by 2e-4 (1e-11 relative) is rounding;
        # one that misses by 20 (1e-6 relative) is not
        lp = lp_of("max", [1.0, 0.0], [[1e7, 0.0], [0.0, 1.0]], [1e7, 1.0], [True, False])
        _verify(lp, LpSolution(OPTIMAL, np.array([1.0 + 2e-11, 0.0]), 0.0))
        with pytest.raises(NumericalBreakdown):
            _verify(lp, LpSolution(OPTIMAL, np.array([1.0 + 2e-6, 0.0]), 0.0))
        with pytest.raises(NumericalBreakdown):
            _verify(lp, LpSolution(OPTIMAL, np.array([1.0, -2e-7]), 0.0))

    @pytest.mark.parametrize("sense", ["maximise", "minimise", "MIN", "", None])
    def test_unknown_sense_is_rejected(self, sense):
        with pytest.raises(ValueError, match="sense"):
            lp_of(sense, [1.0])

    @pytest.mark.parametrize("objective", [[1.0], [1.0, 2.0, 3.0], [[1.0, 2.0]], 1.0])
    def test_objective_of_the_wrong_shape_is_rejected(self, objective):
        with pytest.raises(ValueError, match="shape"):
            LinearProgram("max", objective, np.ones((1, 2)), [1.0], [False])

    def test_rows_of_the_wrong_shape_are_rejected(self):
        for rows, rhs, equal in ((np.ones((1, 3)), [1.0], [False]),
                                 (np.ones(2), [1.0], [False]),
                                 (np.ones((2, 2)), [1.0], [False]),
                                 (np.ones((1, 2)), [1.0], [False, True]),
                                 (np.ones((1, 2)), 1.0, [False])):
            with pytest.raises(ValueError, match="shape"):
                LinearProgram("max", [1.0, 1.0], rows, rhs, equal)


class TestLeanTableau:
    """The tableau without artificial columns against the full one."""

    def test_occupation_measure_lps_match_reference(self):
        statuses = set()
        for seed in range(20):
            for model in (random_model(seed), wide_outcome_model(seed)):
                lp, _ = build_om_lp(model, reachable_states(model))
                statuses.add(solve_like_reference(lp).status)
        assert statuses == {OPTIMAL, INFEASIBLE}

    def test_golden_masters_and_mixtures_match_reference(
            self, monkeypatch, commute, staircase, pathological, two_optima):
        seen = []

        def checked(lp):
            seen.append(lp.sense)
            return solve_like_reference(lp)

        monkeypatch.setattr(scalarise, "solve_lp", checked)
        monkeypatch.setattr(extract, "solve_lp", checked)
        for model in (commute, staircase, pathological, two_optima, tyres()):
            solve_cssp(model)
            oracle_solve(model)
        # Kelley's masters maximise; mixtures and the exact LPs minimise
        assert seen.count("max") >= 10 and seen.count("min") >= 10

    def test_small_corner_cases_match_reference(self):
        lps = []
        for sense, c in (("min", [0.0, 2.0]), ("min", [1.0, -1.0]), ("max", [1.0, 0.0])):
            lps.append(lp_of(sense, c, [[1.0, 0.0]], [4.0], [False]))
        lps.append(lp_of("max", [1.0, 1.0],
                         [[1.0, 1.0], [2.0, 2.0], [1.0, 0.0]], [1.0, 2.0, 0.5],
                         [True, True, False]))   # the second = row stays artificial-basic
        lps.append(lp_of("min", [], [[]], [0.0], [True]))
        lps.append(lp_of("min", [], [[]], [1.0], [True]))
        got = [solve_like_reference(lp).status for lp in lps]
        assert got == [OPTIMAL, UNBOUNDED, OPTIMAL, OPTIMAL, OPTIMAL, INFEASIBLE]

    def test_peak_memory_is_the_lean_tableau(self):
        model = tyres()
        lp, _ = build_om_lp(model, reachable_states(model))
        m = len(lp.rows)
        lean = (m + 1) * (lp.n_vars + np.count_nonzero(~lp.equal) + 1) * 8
        tracemalloc.start()
        try:
            sol = solve_lp(lp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sol.status == OPTIMAL
        assert peak <= 1.25 * lean, (peak, lean)
