import numpy as np
import pytest

from conftest import random_model
from oracles import lagrangian_by_enumeration, proper_policy_costs
from scalarplan.extract import flat_dual_solve
from scalarplan.heuristics import ideal_point_heuristic, zero_heuristic
from scalarplan.model import feasibility_check, load_model
from scalarplan.scalarise import (
    MULTIPLIER_CAP,
    LambdaOracle,
    cutting_plane,
    sample_surface,
)


def oracle(model, lam, h):
    """One cold oracle evaluation."""
    return LambdaOracle(model, h).eval(lam)


class ColdOracle(LambdaOracle):
    """An oracle that solves every subproblem from scratch."""

    def warm_start(self, lam):
        return None


def single_kink_model():
    """Two policies whose scalarised costs cross at lambda = 0.9.

    Cheap action: 1 + 10*lam, expensive action: constant 10; the maximum of
    their lower envelope sits exactly at the crossing.
    """
    return load_model({
        "states": ["s0", "g"], "initial": "s0", "goals": ["g"], "n": 1,
        "bounds": [1.0],
        "actions": [
            {"name": "cheap", "source": "s0", "cost": [1, 11],
             "outcomes": [{"target": "g", "prob": 1.0}]},
            {"name": "steady", "source": "s0", "cost": [10, 1],
             "outcomes": [{"target": "g", "prob": 1.0}]}]})


class TestOracle:
    def test_pathological_origin(self, pathological):
        s = oracle(pathological, np.zeros(2), zero_heuristic(pathological))
        assert s.L == pytest.approx(1.0, abs=1e-9)
        # tie between the two cheap actions resolves to the lexicographically
        # smaller Q vector [1,0,11], so the subgradient is (0-1, 11-1)
        assert np.allclose(s.g, [-1.0, 10.0], atol=1e-9)

    def test_pathological_at_optimum(self, pathological):
        s = oracle(pathological, np.array([2.0, 2.0]), zero_heuristic(pathological))
        assert s.L == pytest.approx(10.0, abs=1e-9)
        assert np.allclose(s.g, [0.0, 0.0], atol=1e-12)

    def test_unconstrained(self, two_optima):
        s = oracle(two_optima, np.zeros(0), zero_heuristic(two_optima))
        assert s.L == pytest.approx(4.0, abs=1e-9)
        assert s.g.shape == (0,)

    def test_matches_policy_enumeration(self):
        rng = np.random.default_rng(4)
        for seed in range(15):
            model = random_model(seed, states=8, actions=2)
            orc = LambdaOracle(model, ideal_point_heuristic(model))
            for _ in range(4):
                lam = rng.uniform(0, 2, size=model.n)
                want = lagrangian_by_enumeration(model, lam)
                got = orc.eval(lam).L
                assert got == pytest.approx(want, abs=2e-4), f"seed {seed}"


def zero_bound_model():
    """No policy can satisfy a zero bound on a strictly positive cost."""
    return load_model({
        "states": ["s0", "g"], "initial": "s0", "goals": ["g"], "n": 1,
        "bounds": [0.0],
        "actions": [{"name": "only", "source": "s0", "cost": [1, 5],
                     "outcomes": [{"target": "g", "prob": 1.0}]}]})


class TestCuttingPlane:
    def test_commute_stays_at_origin(self, commute):
        sample, _, _ = cutting_plane(
            LambdaOracle(commute, ideal_point_heuristic(commute)))
        assert np.allclose(sample.lam, 0.0)
        assert sample.L == pytest.approx(1.0, abs=1e-9)

    def test_boundary_optimum_returns_zero(self, commute):
        # the maximum sits on the box's corner: the search returns the cut
        # made at exactly lam = 0, not a point near it
        sample, _, _ = cutting_plane(
            LambdaOracle(commute, ideal_point_heuristic(commute)))
        assert np.all(sample.lam == 0.0)
        assert sample.L == pytest.approx(1.0, abs=1e-9)

    def test_hand_built_kink_at_0_9(self):
        model = single_kink_model()
        sample, _, _ = cutting_plane(LambdaOracle(model, zero_heuristic(model)),
                                     eta=1e-4)
        assert sample.lam[0] == pytest.approx(0.9, abs=1e-4)
        assert sample.L == pytest.approx(10.0, abs=1e-6)

    def test_staircase_converges_to_kink(self, staircase):
        orc = LambdaOracle(staircase, ideal_point_heuristic(staircase))
        sample, _, _ = cutting_plane(orc)
        assert np.allclose(sample.lam, [0.2, 0.2], atol=2e-4)
        # the returned sample is the last evaluation, and a cold solve at its
        # multiplier gives the same L, so the pipeline need not solve again
        assert sample is orc.cuts[-1]
        assert sample.L == pytest.approx(oracle(staircase, sample.lam, orc.h).L, abs=1e-4)

    def test_pathological_reaches_true_maximum(self, pathological):
        sample, _, _ = cutting_plane(
            LambdaOracle(pathological, zero_heuristic(pathological)), eta=1e-4)
        assert sample.L >= 10.0 - 20 * 1e-4
        lam = sample.lam
        s = oracle(pathological, lam, zero_heuristic(pathological))
        assert s.L >= 10.0 - 20 * 1e-4
        # the optimal face is unbounded; the master prefers its nearest point
        assert np.all(lam <= 10.0)

    def test_multiplier_stays_in_box(self, pathological):
        orc = LambdaOracle(pathological, zero_heuristic(pathological))
        cutting_plane(orc, eta=0.05)
        for cut in orc.cuts:
            assert np.all(cut.lam >= 0.0) and np.all(cut.lam <= MULTIPLIER_CAP)

    def test_infeasible_zero_bound_raises_unbounded(self):
        # L is unbounded, so the master certifies a multiplier on the cap and
        # returns its sample as is; ``solve_cssp`` judges it
        model = zero_bound_model()
        orc = LambdaOracle(model, zero_heuristic(model))
        sample, _, _ = cutting_plane(orc)
        assert sample is orc.cuts[-1]
        assert np.max(sample.lam) >= (1.0 - 1e-9) * MULTIPLIER_CAP

    def test_certified_value_matches_exact_optimum(self):
        # strong duality: max L equals the exact LP's primary optimum
        for seed in range(10):
            model = random_model(seed, states=10)
            orc = LambdaOracle(model, ideal_point_heuristic(model))
            sample, _, _ = cutting_plane(orc, eta=1e-4)
            _, lp_cost, _ = flat_dual_solve(model)
            assert sample.L == pytest.approx(lp_cost[0], abs=5e-4), \
                f"seed {seed}"


class TestSampleSurface:
    def test_pathological_axis_slice(self, pathological):
        grid = [np.array([x, 0.0]) for x in np.arange(0.0, 3.0 + 1e-9, 0.5)]
        pts = sample_surface(LambdaOracle(pathological, zero_heuristic(pathological)), grid)
        for lam, L in pts:
            want = 1.0 - lam[0] if lam[0] > 0 else 1.0
            assert L == pytest.approx(want, abs=1e-6)

    def test_commute_origin(self, commute):
        pts = sample_surface(LambdaOracle(commute, ideal_point_heuristic(commute)),
                             [np.zeros(2)])
        assert pts[0][1] == pytest.approx(1.0, abs=1e-9)

    def test_unconstrained_single_point(self, two_optima):
        pts = sample_surface(LambdaOracle(two_optima, zero_heuristic(two_optima)),
                             [np.zeros(0)])
        assert pts[0][1] == pytest.approx(4.0, abs=1e-9)


class TestLagrangianProperties:
    def test_concavity_certificate(self):
        rng = np.random.default_rng(41)
        eps = 1e-4
        for seed in range(30):
            model = random_model(seed, states=10)
            orc = LambdaOracle(model, ideal_point_heuristic(model))
            la = rng.uniform(0, 2, size=model.n)
            lb = rng.uniform(0, 2, size=model.n)
            sa, sb = orc.eval(la), orc.eval(lb)
            for t in (0.25, 0.5, 0.75):
                mid = orc.eval(t * la + (1 - t) * lb)
                assert mid.L >= t * sa.L + (1 - t) * sb.L - 2 * eps

    def test_subgradient_validity(self):
        rng = np.random.default_rng(42)
        eps = 1e-4
        for seed in range(10):
            model = random_model(seed, states=10)
            orc = LambdaOracle(model, ideal_point_heuristic(model))
            lam = rng.uniform(0, 2, size=model.n)
            s = orc.eval(lam)
            for _ in range(50):
                probe = rng.uniform(0, 3, size=model.n)
                sp = orc.eval(probe)
                assert sp.L <= s.L + s.g @ (probe - lam) + 2 * eps

    def test_weak_duality_against_enumerable_policies(self, commute, staircase):
        rng = np.random.default_rng(43)
        for model in (commute, staircase):
            feasible = [c for _, c in proper_policy_costs(model)
                        if feasibility_check(model, c)]
            best = min((float(c[0]) for c in feasible), default=np.inf)
            orc = LambdaOracle(model, ideal_point_heuristic(model))
            for _ in range(25):
                lam = rng.uniform(0, 2, size=model.n)
                assert orc.eval(lam).L <= best + 1e-6

    def test_warm_start_neutrality(self):
        for seed in range(25):
            model = random_model(seed, states=12)
            h = ideal_point_heuristic(model)
            warm, _, _ = cutting_plane(LambdaOracle(model, h))
            cold, _, _ = cutting_plane(ColdOracle(model, h))
            lw = LambdaOracle(model, h).eval(warm.lam).L
            lc = LambdaOracle(model, h).eval(cold.lam).L
            assert abs(lw - lc) <= 2e-4, f"seed {seed}"
