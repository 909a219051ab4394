import numpy as np
import pytest

from conftest import ZERO_MASS_DEAD_END, ZERO_MASS_TRAP, ladder_model, random_model
from oracles import action_table, scalarised_vi
from scalarplan.domains import GeneratorSpec, generate
from scalarplan.errors import UnreachableGoal
from scalarplan.extract import close_policy
from scalarplan.heuristics import (
    ideal_point_heuristic,
    lambda_heuristic,
    make_heuristic,
    zero_heuristic,
)
from scalarplan.model import StochasticPolicy, finite_penalty_transform, load_model


def chain_model():
    return load_model({
        "states": ["s0", "s1", "g"], "initial": "s0", "goals": ["g"], "n": 1,
        "bounds": [10.0],
        "actions": [
            {"name": "a", "source": "s0", "cost": [1, 2],
             "outcomes": [{"target": "s1", "prob": 1.0}]},
            {"name": "b", "source": "s1", "cost": [1, 2],
             "outcomes": [{"target": "g", "prob": 1.0}]},
        ]})


class TestZeroHeuristic:
    def test_all_zero(self, commute):
        h = zero_heuristic(commute)
        assert not h.values.any()

    def test_admissible_for_any_scalarisation(self, commute):
        # costs are strictly positive, so 0 lower-bounds every scalarised value
        for lam in ([0.0, 0.0], [3.0, 1.0]):
            v = scalarised_vi(commute, lam)
            assert np.all(v >= -1e-12)


class TestIdealPointHeuristic:
    def test_commute_components(self, commute):
        h = ideal_point_heuristic(commute)
        assert h.values[commute.initial][0] == pytest.approx(1.0)
        assert np.allclose(h.values[commute.state_names.index("g")], 0.0)

    def test_chain_sums_components(self):
        model = chain_model()
        h = ideal_point_heuristic(model)
        assert np.allclose(h.values[0], [2, 4])

    def test_unreachable_goal(self):
        model = load_model({
            "states": ["s0", "pit", "g"], "initial": "s0", "goals": ["g"], "n": 0,
            "bounds": [],
            "actions": [
                {"name": "fall", "source": "s0", "cost": [1],
                 "outcomes": [{"target": "pit", "prob": 1.0}]}]})
        with pytest.raises(UnreachableGoal):
            ideal_point_heuristic(model)


class TestLambdaHeuristic:
    def test_zero_lambda_matches_primary_component(self, commute):
        hl = lambda_heuristic(commute, np.zeros(2))
        ip = ideal_point_heuristic(commute)
        assert np.allclose(hl.values[:, 0], ip.values[:, 0], atol=1e-12)

    def test_attribution_sums_vector_costs(self):
        model = chain_model()
        h = lambda_heuristic(model, np.array([1.0]))
        assert np.allclose(h.values[0], [2, 4])
        assert np.allclose(h.values[1], [1, 2])

    def test_pathological_attribution_at_2_2(self, pathological):
        h = lambda_heuristic(pathological, np.array([2.0, 2.0]))
        # scalarised action costs are 14, 23, 23 -> cheapest path uses the
        # expensive-primary action, so the vector estimate is its cost
        assert np.allclose(h.values[0], [10, 1, 1])
        w = np.array([1.0, 2.0, 2.0])
        assert w @ h.values[0] == pytest.approx(14.0, abs=1e-12)

    def test_scalar_projection_equals_dijkstra_distance(self):
        for seed in range(30):
            model = random_model(seed, states=15)
            rng = np.random.default_rng(seed)
            lam = rng.uniform(0, 3, size=model.n)
            h = lambda_heuristic(model, lam)
            w = np.concatenate(([1.0], lam))
            # recompute the scalar distances with an independent Dijkstra
            import heapq
            dist = {g: 0.0 for g in model.goals}
            heap = [(0.0, g) for g in model.goals]
            rev = {}
            for s, acts in enumerate(action_table(model)):
                for a, act in enumerate(acts):
                    for t in set(int(x) for x in act.successors):
                        rev.setdefault(t, []).append((s, float(w @ act.cost)))
            done = set()
            while heap:
                d, t = heapq.heappop(heap)
                if t in done:
                    continue
                done.add(t)
                for s, wgt in rev.get(t, []):
                    if s in done or model.is_goal(s):
                        continue
                    cand = wgt + d
                    if cand < dist.get(s, np.inf):
                        dist[s] = cand
                        heapq.heappush(heap, (cand, s))
            for s, d in dist.items():
                assert abs(float(w @ h.values[s]) - d) <= 1e-12 * (1 + abs(d))


class TestAdmissibility:
    def test_heuristics_lower_bound_vi_values(self):
        rng = np.random.default_rng(99)
        for seed in range(100):
            model = random_model(seed, states=int(rng.integers(5, 25)))
            ip = ideal_point_heuristic(model)
            lams = rng.uniform(0, 4, size=(20, model.n))
            lams[0] = 0.0
            for lam in lams:
                vstar = scalarised_vi(model, lam, residual=1e-10)
                w = np.concatenate(([1.0], lam))
                assert np.all(ip.values @ w <= vstar + 1e-7)
            # lambda heuristic is admissible for the scalarisation it was built for
            lam = lams[-1]
            hl = lambda_heuristic(model, lam)
            vstar = scalarised_vi(model, lam, residual=1e-10)
            w = np.concatenate(([1.0], lam))
            assert np.all(hl.values @ w <= vstar + 1e-7)


def test_make_heuristic_dispatch(commute):
    assert make_heuristic(commute, "zero").kind == "zero"
    assert make_heuristic(commute, "ideal-point").kind == "ideal-point"
    h = make_heuristic(commute, "lambda", np.array([1.0, 0.5]))
    assert h.kind == "lambda" and np.allclose(h.lam, [1.0, 0.5])
    with pytest.raises(ValueError):
        make_heuristic(commute, "nope")


def per_action_dijkstra(model, weight):
    """Backward heap Dijkstra over the outcomes of positive probability,
    calling ``weight(action)`` on every edge.

    Returns (distances, parent) with parent[s] = (action id, successor).
    Ties break on the smallest state id via the heap key; each state's
    incoming edges are scanned in ascending (state, action) order.
    """
    import heapq
    dist = np.full(model.num_states, np.inf)
    parent = [None] * model.num_states
    heap = []
    for g in sorted(model.goals):
        dist[g] = 0.0
        heapq.heappush(heap, (0.0, g))
    rev = [[] for _ in range(model.num_states)]
    table = action_table(model)
    for s, acts in enumerate(table):
        for a, act in enumerate(acts):
            # an outcome of probability 0 is no edge
            for t in set(int(x) for x, p in zip(act.successors, act.probs) if p > 0):
                rev[t].append((s, a))
    done = np.zeros(model.num_states, dtype=bool)
    while heap:
        d, t = heapq.heappop(heap)
        if done[t]:
            continue
        done[t] = True
        for s, a in rev[t]:
            if done[s] or model.is_goal(s):
                continue
            cand = weight(table[s][a]) + dist[t]
            if cand < dist[s]:
                dist[s] = cand
                parent[s] = (a, t)
                heapq.heappush(heap, (cand, s))
    return dist, parent


def reference_heuristics(model, lam):
    """Ideal point, lambda values and empty-policy exits from per_action_dijkstra."""
    ideal = np.zeros((model.num_states, model.n + 1))
    for i in range(model.n + 1):
        dist, _ = per_action_dijkstra(model, lambda act, i=i: float(act.cost[i]))
        ideal[:, i] = np.where(np.isfinite(dist), dist, 0.0)
    w = np.concatenate(([1.0], lam))
    table = action_table(model)
    _, parent = per_action_dijkstra(model, lambda act: float(w @ act.cost))
    values = np.zeros((model.num_states, model.n + 1))
    resolved = np.zeros(model.num_states, dtype=bool)
    resolved[list(model.goals)] = True
    for s in range(model.num_states):
        if parent[s] is None and not resolved[s]:
            continue
        chain, t = [], s
        while not resolved[t]:
            chain.append(t)
            t = parent[t][1]
        acc = values[t].copy()
        for u in reversed(chain):
            acc = acc + table[u][parent[u][0]].cost
            values[u] = acc
            resolved[u] = True
    # close_policy of the empty policy: cheapest exits along a depth-first walk
    _, parent = per_action_dijkstra(model, lambda act: float(act.cost[0]))
    exits, seen, stack = {}, set(), [model.initial]
    while stack:
        s = stack.pop()
        if s in seen or model.is_goal(s) or parent[s] is None:
            continue
        seen.add(s)
        exits[s] = ((parent[s][0], 1.0),)
        stack.extend(int(t) for t in table[s][parent[s][0]].successors)
    return ideal, values, exits


def edge_case_model(seed):
    """Acceptance-family document reshaped for shortest-path ties.

    Primary costs are 1 or 2 and secondary costs 0 or 1 (every secondary
    cost is 0 on even seeds), and every non-chain action gains a
    zero-probability outcome and splits its first outcome into two
    identical halves.
    """
    from scalarplan.domains import random_cssp_document
    rng = np.random.default_rng([seed, 12])
    doc = random_cssp_document(6 + (7 * seed) % 35, 2 + seed % 2, 1 + seed % 2, seed)
    for rec in doc["actions"]:
        rec["cost"] = [float(rng.integers(1, 3))] + [
            0.0 if seed % 2 == 0 else float(rng.integers(0, 2)) for _ in rec["cost"][1:]]
        if rec["name"] == "a0":
            continue
        first = rec["outcomes"][0]
        half = {"target": first["target"], "prob": first["prob"] / 2}
        rec["outcomes"][:1] = [half, dict(half)]
        rec["outcomes"].append(
            {"target": doc["states"][int(rng.integers(len(doc["states"])))], "prob": 0.0})
    return load_model(doc)


def test_pair_weights_match_per_action_weights():
    # the frontier relaxation and its shortest-path tree give the heap
    # Dijkstra's distances, attributed vectors and exits, byte for byte
    rng = np.random.default_rng(6)
    models = [random_model(seed, states=int(rng.integers(5, 60)), secondary=1 + seed % 4)
              for seed in range(20)]
    models += [edge_case_model(seed) for seed in range(20)]
    models.append(finite_penalty_transform(
        generate(GeneratorSpec("tireworld", n=6, d=5, c=4)), np.array([500.0] + [1.0] * 4)))
    models.append(generate(GeneratorSpec("random", states=400, actions_per_state=3,
                                         secondary=2, seed=0)))
    models.append(ladder_model(60))
    for model in models:
        for lam in (rng.uniform(0, 3, size=model.n) * rng.choice([0.01, 1.0, 100.0]),
                    np.zeros(model.n)):
            w = np.concatenate(([1.0], lam))
            # the per-pair weights are the per-action floats
            assert np.vecdot(model.layout.cost, w).tolist() == [
                float(w @ act.cost) for acts in action_table(model) for act in acts]
            ideal, values, exits = reference_heuristics(model, lam)
            assert ideal_point_heuristic(model).values.tobytes() == ideal.tobytes()
            assert lambda_heuristic(model, lam).values.tobytes() == values.tobytes()
            assert close_policy(model, StochasticPolicy({})).distribution == exits


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_multiplier_is_rejected(commute, bad):
    with pytest.raises(ValueError, match="finite"):
        lambda_heuristic(commute, np.array([bad, 0.0]))


def test_outcomes_of_probability_0_are_no_edges():
    # "loop" reaches the goal with probability 0, so "u" exits by "exit" at 5
    model = load_model(ZERO_MASS_TRAP)
    for h in (ideal_point_heuristic(model), lambda_heuristic(model, [])):
        assert h.values[:, 0].tolist() == [1.0, 0.0, 6.0, 5.0]
    exits = close_policy(model, StochasticPolicy({})).distribution
    u = model.state_names.index("u")
    assert model.action_names[model.layout.offsets[u] + exits[u][0][0]] == "exit"
    with pytest.raises(UnreachableGoal, match=r"\['s0', 's1'\]"):
        ideal_point_heuristic(load_model(ZERO_MASS_DEAD_END))
