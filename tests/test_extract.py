import dataclasses

import numpy as np
import pytest

from conftest import random_model, random_outcome_document, random_outcome_model
from oracles import action_table
from scalarplan.errors import ExtractionInfeasible, Infeasible, MalformedPolicy
from scalarplan.extract import (
    build_om_lp,
    decode_policy,
    flat_dual_solve,
    flow_residual,
    mix_policies,
    occupation_measure_of,
)
from scalarplan.heuristics import ideal_point_heuristic
from scalarplan.domains import GeneratorSpec, generate
from scalarplan.linalg import solve_lp
from scalarplan.model import (
    DeterministicPolicy,
    StochasticPolicy,
    evaluate_policy,
    feasibility_check,
    load_model,
    reachable_states,
)
from scalarplan.scalarise import LambdaOracle, cutting_plane
from scalarplan.search import scalar_weights
from scalarplan.solver import solve_cssp


def measure_of(model, flows):
    """The occupation measure with ``flows[(s, a)]`` on each listed pair, 0 elsewhere."""
    offsets = model.layout.offset_list
    x = np.zeros(offsets[-1])
    for (s, a), v in flows.items():
        x[offsets[s] + a] = v
    return x


class TestDecodePolicy:
    def test_even_mixture(self, commute):
        pol = decode_policy(commute, measure_of(commute, {(0, 0): 0.5, (0, 1): 0.5}))
        assert dict(pol.distribution[0]) == {0: 0.5, 1: 0.5}

    def test_deterministic_measure(self):
        model = random_model(0, states=8)
        pol = decode_policy(model, measure_of(model, {(0, 1): 1.0, (2, 0): 2.5}))
        assert pol.distribution == {0: ((1, 1.0),), 2: ((0, 1.0),)}

    def test_zero_flow_state_omitted(self):
        model = random_model(0, states=8)
        pol = decode_policy(model, measure_of(model, {(0, 0): 1.0, (5, 1): 0.0}))
        assert 5 not in pol.distribution

    def test_tiny_flow_state_kept_at_zero_tolerance(self):
        model = random_model(0, states=8)
        measure = measure_of(model, {(0, 0): 1.0, (5, 1): 1e-12})
        assert 5 not in decode_policy(model, measure).distribution
        assert decode_policy(model, measure, tol=0.0).distribution[5] == ((1, 1.0),)

    def test_grouping_matches_per_state_rescan(self):
        rng = np.random.default_rng(11)
        for seed in range(20):
            model = random_model(seed, states=6)
            offsets = model.layout.offset_list
            flows = rng.choice([0.0, 1e-12, -1e-9, 0.3, 1.7], size=offsets[-1])
            want = {}
            for s in range(model.num_states):
                own = [max(0.0, float(v)) for v in flows[offsets[s]:offsets[s + 1]]]
                total = sum(own)
                if total <= 1e-9:
                    continue
                probs = [(a, v / total) for a, v in enumerate(own)]
                probs = [(a, p) for a, p in probs if p > 0.0]
                norm = sum(p for _, p in probs)
                want[s] = tuple((a, p / norm) for a, p in probs)
            assert want
            assert decode_policy(model, flows).distribution == want


class TestFlatDualSolve:
    def test_commute(self, commute):
        policy, cost, _ = flat_dual_solve(commute)
        assert np.allclose(cost, [1, 15, 10], atol=1e-7)
        probs = dict(policy.distribution[0])
        assert probs[0] == pytest.approx(0.5, abs=1e-7)

    def test_commute_zero_effort_bound_infeasible(self, commute):
        tight = dataclasses.replace(commute, bounds=np.array([15.0, 0.0]))
        with pytest.raises(Infeasible):
            flat_dual_solve(tight)

    @pytest.mark.parametrize("states, seed", [(400, 1), (500, 4)])
    def test_reported_cost_is_the_returned_policys_price(self, states, seed):
        # decoding drops states the LP visits at most FLOW_TOL times and
        # close_policy gives them exits, so the returned policy can cost more
        # than the LP optimum (1.4e-8 and 3.2e-8 here); the report prices it
        model = generate(GeneratorSpec("random", states=states, actions_per_state=3,
                                       secondary=2, seed=seed))
        policy, cost, _ = flat_dual_solve(model)
        assert cost.tobytes() == evaluate_policy(model, policy).tobytes()
        lp, _ = build_om_lp(model, reachable_states(model))
        assert abs(cost[0] - solve_lp(lp).objective) <= 1e-7

    def test_staircase_cost(self, staircase):
        _, cost, _ = flat_dual_solve(staircase)
        assert cost[0] == pytest.approx(4.0, abs=1e-7)

    def test_initial_goal(self):
        model = load_model({"states": ["g"], "initial": "g", "goals": ["g"],
                            "n": 0, "bounds": [], "actions": []})
        policy, cost, _ = flat_dual_solve(model)
        assert not policy.distribution and not cost.any()

    def test_pathological_only_expensive_action_feasible(self, pathological):
        policy, cost, _ = flat_dual_solve(pathological)
        assert np.allclose(cost, [10, 1, 1], atol=1e-7)
        assert dict(policy.distribution[0]) == {0: pytest.approx(1.0, abs=1e-9)}
        # cross-check by brute force over mixture weights of the 3 policies
        best = np.inf
        for w0 in np.linspace(0, 1, 101):
            for w1 in np.linspace(0, 1 - w0, 51):
                w2 = 1 - w0 - w1
                c = w0 * np.array([10, 1, 1]) + w1 * np.array([1, 11, 0]) \
                    + w2 * np.array([1, 0, 11])
                if np.all(c[1:] <= pathological.bounds + 1e-9):
                    best = min(best, c[0])
        assert best == pytest.approx(10.0, abs=1e-9)


    def test_flow_rows_match_full_pair_scan(self):
        # reference: the builder that found each state's outflow columns by
        # scanning every pair; rows must come out bit for bit the same
        def scanned_rows(model, pairs, states):
            inflow = {}
            table = action_table(model)
            for j, (s, a) in enumerate(pairs):
                act = table[s][a]
                for t, p in zip(act.successors, act.probs):
                    inflow.setdefault(int(t), {}).setdefault(j, 0.0)
                    inflow[int(t)][j] += float(p)
            rows = []
            for s in sorted(states):
                if model.is_goal(s):
                    continue
                row = np.zeros(len(pairs))
                for j, (s2, _) in enumerate(pairs):
                    if s2 == s:
                        row[j] += 1.0
                for j, p in inflow.get(s, {}).items():
                    row[j] -= p
                rows.append((row, 1.0 if s == model.initial else 0.0))
            sink = np.zeros(len(pairs))
            for g in model.goals:
                for j, p in inflow.get(g, {}).items():
                    sink[j] += p
            return rows + [(sink, 1.0)]

        def assert_same(model, lp, cols, want):
            # the flow and sink rows, then one bound row per secondary cost
            assert len(lp.rows) == len(want) + model.n
            assert lp.equal.tolist() == [True] * len(want) + [False] * model.n
            for row, rhs, (row0, rhs0) in zip(lp.rows, lp.rhs, want):
                assert row.tobytes() == row0.tobytes() and rhs == rhs0
            for i, (row, rhs) in enumerate(zip(lp.rows[len(want):], lp.rhs[len(want):])):
                assert row.tobytes() == model.layout.cost[cols, i + 1].tobytes()
                assert rhs == model.bounds[i]

        rng = np.random.default_rng(13)
        for trial in range(60):
            doc = random_outcome_document(rng, int(rng.integers(3, 15)), trial % 3)
            if trial >= 40:
                # no goal, or several, whose rows the sink row sums in goal
                # order; an initial state drawn as a goal is among no rows
                states = doc["states"]
                doc["goals"] = [states[i] for i in
                                rng.choice(len(states), trial % 4, replace=False)]
            model = load_model(doc)
            states = reachable_states(model)
            lp, cols = build_om_lp(model, states)
            pairs = model.layout
            assert cols.tolist() == [j for j in range(len(pairs.state))
                                     if pairs.state[j] in states]
            columns = [(int(pairs.state[j]), int(j - pairs.offsets[pairs.state[j]]))
                       for j in cols]
            assert_same(model, lp, cols, scanned_rows(model, columns, states))


class TestExtractOptPolicy:
    """The optimal policy as ``mix_policies`` extracts it from deterministic policies."""

    def test_commute_end_to_end(self, commute):
        run, taxi = DeterministicPolicy({0: 0}), DeterministicPolicy({0: 1})
        walk = DeterministicPolicy({0: 2, 1: 0, 2: 0})
        mix = mix_policies(commute, [run, taxi, walk])
        assert np.allclose(mix.costs, [[1, 0, 20], [1, 30, 0], [3, 10, 4]], atol=1e-12)
        assert mix.weights.tolist() == [0.5, 0.5, 0.0]
        assert mix.policy.distribution == {0: ((0, 0.5), (1, 0.5))}
        assert np.allclose(evaluate_policy(commute, mix.policy), [1, 15, 10], atol=1e-12)

    def test_staircase_end_to_end(self, staircase):
        oracle = LambdaOracle(staircase, ideal_point_heuristic(staircase))
        cutting_plane(oracle)
        mix = mix_policies(staircase, [cut.policy for cut in oracle.cuts])
        policy = mix.policy
        assert np.allclose(evaluate_policy(staircase, policy), [4, 15, 15], atol=1e-5)
        a2 = staircase.action_id(0, "a2")
        assert dict(policy.distribution[0])[a2] == pytest.approx(1.0, abs=1e-6)
        assert dict(policy.distribution[1])[staircase.action_id(1, "a4")] \
            == pytest.approx(0.25, abs=1e-6)

    def test_unconstrained_returns_tied_greedy_policy(self, two_optima):
        # two policies tie for the optimum; the one the search found is kept
        oracle = LambdaOracle(two_optima, ideal_point_heuristic(two_optima))
        sample = oracle.eval(np.zeros(0))
        mix = mix_policies(two_optima, [sample.policy])
        assert mix.weights.tolist() == [1.0]
        assert mix.policy == sample.policy.to_stochastic()
        assert evaluate_policy(two_optima, mix.policy)[0] == pytest.approx(4.0, abs=1e-12)

    def test_pathological_origin_infeasible(self, pathological):
        # a1 and a2, the two cheap policies that tie at the origin, each break
        # one bound by 10, and every mixture of them breaks one
        cheap = [DeterministicPolicy({0: 1}), DeterministicPolicy({0: 2})]
        with pytest.raises(ExtractionInfeasible):
            mix_policies(pathological, cheap)


class TestOccupationMeasures:
    def test_flow_invariants_of_policy_measure(self, commute):
        mix = StochasticPolicy({0: ((0, 0.5), (1, 0.5))})
        x = occupation_measure_of(commute, mix)
        assert flow_residual(commute, x) <= 1e-9

    @pytest.mark.parametrize("dist", [{0: ((3, 1.0),)}, {0: ((-1, 1.0),)}, {9: ((0, 1.0),)}])
    def test_ids_outside_the_model_are_rejected(self, commute, dist):
        # a pair id offsets[s] + a out of state s's slice names another state's pair
        with pytest.raises(MalformedPolicy):
            occupation_measure_of(commute, StochasticPolicy(dist))

    def test_measure_cost_matches_evaluation(self, staircase):
        pol = StochasticPolicy({
            0: ((staircase.action_id(0, "a2"), 1.0),),
            1: ((staircase.action_id(1, "a4"), 0.25),
                (staircase.action_id(1, "a5"), 0.75))})
        x = occupation_measure_of(staircase, pol)
        assert np.allclose(x @ staircase.layout.cost,
                           evaluate_policy(staircase, pol), atol=1e-9)

    def test_sums_match_per_pair_loop(self):
        # reference: flow balance and cost summed pair by pair and outcome by
        # outcome over arbitrary (mostly unbalanced) measures
        rng = np.random.default_rng(9)
        for trial in range(40):
            model = random_outcome_model(rng, int(rng.integers(2, 12)), trial % 3)
            x = rng.random(model.layout.offsets[-1]) * rng.choice([0.0, 1.0], 1)
            out, inflow = np.zeros(model.num_states), np.zeros(model.num_states)
            cost = np.zeros(model.n + 1)
            j = 0
            for s, acts in enumerate(action_table(model)):
                for act in acts:
                    out[s] += x[j]
                    cost += x[j] * act.cost
                    for t, p in zip(act.successors, act.probs):
                        inflow[t] += x[j] * p
                    j += 1
            balance = out - inflow - (np.arange(model.num_states) == model.initial)
            want = max([abs(balance[s]) for s in range(model.num_states)
                        if not model.is_goal(s)]
                       + [abs(sum(inflow[g] for g in model.goals) - 1.0)])
            assert flow_residual(model, x) == pytest.approx(want, abs=1e-12)
            assert np.allclose(x @ model.layout.cost, cost, rtol=1e-12, atol=0)


class TestFlowDecomposition:
    """The mixture's weights decompose the optimal measure into deterministic policies."""

    def test_staircase_mixture_constituents_are_lambda_optimal(self, staircase):
        out = solve_cssp(staircase)
        lam = np.array(out.report.lam)
        parts = [(mu, det) for mu, det in zip(out.mixture.weights, out.mixture.policies)
                 if mu > 0]
        assert len(parts) == 2
        assert sum(mu for mu, _ in parts) == pytest.approx(1.0, abs=1e-9)
        w = scalar_weights(lam)
        L = 4.0
        for mu, det in parts:
            cost = evaluate_policy(staircase, det.to_stochastic())
            c_lam = float(w @ cost) - float(lam @ staircase.bounds)
            assert abs(c_lam - L) <= 10 * 1e-4
        # and the weighted blend reproduces the mixture's cost vector
        blend = sum(mu * evaluate_policy(staircase, det.to_stochastic())
                    for mu, det in parts)
        assert np.allclose(blend, evaluate_policy(staircase, out.policy), atol=1e-6)

    def test_deterministic_measure_single_part(self, pathological):
        a0, a1 = DeterministicPolicy({0: 0}), DeterministicPolicy({0: 1})
        mix = mix_policies(pathological, [a0, a1, a0])
        assert mix.policies == [a0, a1]   # repeated policies are priced once
        assert mix.weights.tolist() == [1.0, 0.0]
        assert mix.policy == a0.to_stochastic()


class TestComplementarySlackness:
    def test_realised_on_random_batch(self):
        for seed in range(20):
            model = random_model(seed, states=12)
            out = solve_cssp(model)
            x = occupation_measure_of(model, out.policy)
            assert flow_residual(model, x) <= 1e-6
            cost = x @ model.layout.cost
            lam = np.array(out.report.lam)
            for i in range(model.n):
                if lam[i] > 1e-9:
                    assert abs(cost[i + 1] - model.bounds[i]) \
                        <= 1e-5 * (1 + model.bounds[i]), f"seed {seed}"
            assert feasibility_check(model, cost)
