import dataclasses
import functools
import json
import math

import numpy as np
import pytest

from conftest import (
    MALFORMED,
    MALFORMED_POLICIES,
    UNPARSABLE,
    ZERO_MASS_DEAD_BRANCH,
    ZERO_MASS_DEAD_END,
    ZERO_MASS_TRAP,
    assert_layout_invariants,
    assert_loads_like_reference,
    ladder_model,
    random_model,
    random_outcome_document,
    random_outcome_model,
    wide_outcome_model,
)
from oracles import (
    dense_evaluate_policy,
    dense_occupation_measure,
    exhaustive_policy_cost,
    monte_carlo_cost,
    proper_policy_costs,
    reference_envelope,
    reference_evaluate_policy,
    reference_occupation_measure,
    reference_reachable_states,
)
from scalarplan.domains import GeneratorSpec, generate
from scalarplan.errors import (
    BadDistribution,
    DimensionMismatch,
    ImproperPolicy,
    MalformedModel,
    MalformedPolicy,
    NonpositivePrimaryCost,
    OpenPolicy,
)
from scalarplan.extract import flat_dual_solve, mix_policies, occupation_measure_of
from scalarplan.linalg import solve_linear_system
from scalarplan.model import (
    DeterministicPolicy,
    StochasticPolicy,
    evaluate_policy,
    feasibility_check,
    finite_penalty_transform,
    load_model,
    load_model_file,
    model_to_document,
    policy_from_names,
    policy_to_names,
    reachable_states,
)
from scalarplan.solver import solve_cssp

RUN, TAXI, WALK = 0, 1, 2


def commute_policies():
    run = DeterministicPolicy({0: RUN}).to_stochastic()
    taxi = DeterministicPolicy({0: TAXI}).to_stochastic()
    train = DeterministicPolicy({0: WALK, 1: 0, 2: 0}).to_stochastic()
    mix = StochasticPolicy({0: ((RUN, 0.5), (TAXI, 0.5))})
    return run, taxi, train, mix


class TestLoadModel:
    def test_commute_shape_and_policy_count(self, commute):
        assert commute.num_states == 4
        assert commute.n == 2
        assert np.allclose(commute.bounds, [15, 10])
        assert len(proper_policy_costs(commute)) == 3

    def test_single_state_goal_model(self):
        doc = {"states": ["s"], "initial": "s", "goals": ["s"],
               "n": 1, "bounds": [2.0], "actions": []}
        model = load_model(doc)
        assert np.allclose(evaluate_policy(model, StochasticPolicy({})), [0, 0])

    def test_bad_distribution(self):
        doc = {"states": ["a", "g"], "initial": "a", "goals": ["g"], "n": 0,
               "bounds": [],
               "actions": [{"name": "x", "source": "a", "cost": [1],
                            "outcomes": [{"target": "g", "prob": 0.9}]}]}
        with pytest.raises(BadDistribution):
            load_model(doc)

    def test_nonpositive_primary_cost(self):
        doc = {"states": ["a", "g"], "initial": "a", "goals": ["g"], "n": 0,
               "bounds": [],
               "actions": [{"name": "x", "source": "a", "cost": [0.0],
                            "outcomes": [{"target": "g", "prob": 1.0}]}]}
        with pytest.raises(NonpositivePrimaryCost):
            load_model(doc)

    def test_goal_actions_stripped(self):
        doc = {"states": ["a", "g"], "initial": "a", "goals": ["g"], "n": 0,
               "bounds": [],
               "actions": [
                   {"name": "x", "source": "a", "cost": [1],
                    "outcomes": [{"target": "g", "prob": 1.0}]},
                   {"name": "loop", "source": "g", "cost": [1],
                    "outcomes": [{"target": "g", "prob": 1.0}]}]}
        model = load_model(doc)
        assert model.action_names == ("x",)
        assert model.layout.offsets.tolist() == [0, 1, 1]

    @pytest.mark.parametrize("mutate", MALFORMED)
    def test_malformed_documents(self, mutate):
        from scalarplan.domains import getting_to_work_document
        doc = getting_to_work_document()
        mutate(doc)
        with pytest.raises(MalformedModel):
            load_model(doc)
        assert_loads_like_reference(doc)

    @pytest.mark.parametrize("text", UNPARSABLE)
    def test_unparsable_text_is_malformed(self, text):
        with pytest.raises(MalformedModel, match="^not valid JSON: "):
            load_model(text)
        assert_loads_like_reference(text)

    def test_file_not_utf8_is_malformed(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff")
        with pytest.raises(MalformedModel, match="^not valid JSON: "):
            load_model_file(path)

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d["actions"][0]["cost"].__setitem__(2, 10 ** 400),
         "action 'run' cost must be an array of numbers"),
        (lambda d: d.__setitem__("bounds", [15.0, -10 ** 400]),
         "bounds must be an array of numbers"),
        (lambda d: d["actions"][0]["outcomes"][0].__setitem__("prob", 10 ** 400),
         "action 'run' outcome {'target': 'g', 'prob': 1" + "0" * 400
         + "} is not an object with a target and a numeric prob"),
    ])
    def test_integers_beyond_double_range_are_malformed(self, edit, message):
        from scalarplan.domains import getting_to_work_document
        doc = getting_to_work_document()
        edit(doc)
        with pytest.raises(MalformedModel) as err:
            load_model(json.dumps(doc))
        assert str(err.value) == message

    def test_round_trip(self, commute):
        doc = model_to_document(commute)
        again = load_model(json.dumps(doc))
        assert again.state_names == commute.state_names
        assert model_to_document(again) == doc

    def test_documents_round_trip(self):
        from scalarplan import domains
        pen = [1000.0, 1.0, 1.0]
        tyres = domains.tireworld_document(6, 5, 2)
        # the penalty transform appends one give-up record to each non-goal state
        goal = min(tyres["goals"], key=tyres["states"].index)
        given_up = dict(tyres, actions=[])
        for name in tyres["states"]:
            given_up["actions"] += [rec for rec in tyres["actions"] if rec["source"] == name]
            if name not in tyres["goals"]:
                given_up["actions"].append({
                    "name": "__give_up__", "source": name, "cost": pen,
                    "outcomes": [{"target": goal, "prob": 1.0}]})
        assert model_to_document(finite_penalty_transform(load_model(tyres), pen)) \
            == given_up
        docs = [domains.getting_to_work_document(), domains.coord_interesting_document(),
                domains.coord_pathological_document(), domains.strong_eps_example_document(),
                tyres, given_up]
        docs += [domains.random_cssp_document(12 + 3 * seed, 1 + seed % 4, seed % 3, seed)
                 for seed in range(10)]
        # a record whose source is a goal is stripped
        docs[0]["actions"].append({"name": "stay", "source": "g", "cost": [1, 0, 0],
                                   "outcomes": [{"target": "g", "prob": 1.0}]})
        for doc in docs:
            assert_loads_like_reference(doc)
            stripped = dict(doc, actions=[rec for rec in doc["actions"]
                                          if rec["source"] not in doc["goals"]])
            assert model_to_document(load_model(doc)) == stripped
            assert model_to_document(load_model(json.dumps(doc))) == stripped

    def test_first_faulty_record_is_reported(self):
        from scalarplan.domains import getting_to_work_document
        doc = getting_to_work_document()
        doc["actions"][1]["cost"][0] = 0.0                       # taxi at s0
        doc["actions"][3]["outcomes"][0]["prob"] = 0.5           # train at s1
        with pytest.raises(NonpositivePrimaryCost):
            load_model(doc)
        doc["actions"].reverse()
        with pytest.raises(BadDistribution):
            load_model(doc)
        # a duplicate name is reported once every record has been read
        doc["actions"][1]["outcomes"][0]["prob"] = 1.0
        doc["actions"][3]["cost"][0] = 1.0
        doc["actions"][3]["name"] = "walk"   # taxi, at s0 like walk
        doc["actions"][4]["cost"][0] = -1.0  # run
        with pytest.raises(NonpositivePrimaryCost):
            load_model(doc)
        doc["actions"][4]["cost"][0] = 1.0
        with pytest.raises(MalformedModel, match="state 's0' has duplicate action name 'walk'"):
            load_model(doc)

    @pytest.mark.parametrize("edit, error, message", [
        # a structural fault after a numeric one, and the reverse
        (lambda a: (a[1]["cost"].__setitem__(0, 0.0), a[3].__setitem__("outcomes", 5)),
         NonpositivePrimaryCost, "action 'taxi' has primary cost 0.0"),
        (lambda a: (a[1].__setitem__("outcomes", 5), a[3]["cost"].__setitem__(0, 0.0)),
         MalformedModel, "action 'taxi' outcomes must be an array"),
        (lambda a: (a[1]["outcomes"][0].__setitem__("prob", 0.5), a[3].pop("cost")),
         BadDistribution, "action 'taxi' outcome mass sums to 0.5"),
        # within a record: its costs before its outcomes, and outcome by outcome
        (lambda a: (a[1]["cost"].__setitem__(2, -1.0), a[1].__setitem__("outcomes", 5)),
         MalformedModel, "action 'taxi' has negative secondary cost"),
        (lambda a: (a[2]["outcomes"][0].__setitem__("target", "nope"),
                    a[2]["outcomes"][1].__setitem__("prob", "half")),
         MalformedModel, "outcome target 'nope' unknown"),
        (lambda a: (a[2]["outcomes"][0].__setitem__("prob", "half"),
                    a[2]["outcomes"][1].__setitem__("target", "nope")),
         MalformedModel, "action 'walk' outcome {'target': 's1', 'prob': 'half'} is not "
                         "an object with a target and a numeric prob"),
        (lambda a: a[2]["outcomes"][0].update(target="nope", prob="half"),
         MalformedModel, "action 'walk' outcome {'target': 'nope', 'prob': 'half'} is not "
                         "an object with a target and a numeric prob"),
        # a negative mass that sums to 1, and a sum taken in outcome order
        (lambda a: (a[2]["outcomes"][0].__setitem__("prob", 1.5),
                    a[2]["outcomes"][1].__setitem__("prob", -0.5)),
         BadDistribution, "action 'walk' has negative or NaN outcome mass"),
        (lambda a: a[2].__setitem__("outcomes", [{"target": t, "prob": p} for t, p in
                                                 (("s1", 0.1), ("s2", 0.2), ("s1", 0.3))]),
         BadDistribution, "action 'walk' outcome mass sums to 0.6000000000000001"),
        # infinite masses of both signs, and a NaN cost, raise without a warning
        (lambda a: (a[2]["outcomes"][0].__setitem__("prob", math.inf),
                    a[2]["outcomes"][1].__setitem__("prob", -math.inf)),
         BadDistribution, "action 'walk' has negative or NaN outcome mass"),
        (lambda a: a[2]["outcomes"][0].__setitem__("prob", math.inf),
         BadDistribution, "action 'walk' outcome mass sums to inf"),
        (lambda a: a[0]["cost"].__setitem__(1, math.nan),
         MalformedModel, "action 'run' cost must be finite"),
    ])
    def test_fault_order_across_kinds(self, edit, error, message):
        from scalarplan.domains import getting_to_work_document
        doc = getting_to_work_document()
        edit(doc["actions"])
        with pytest.raises(error) as err:
            load_model(doc)
        assert (type(err.value), str(err.value)) == (error, message)
        assert_loads_like_reference(doc)

    def test_goal_record_with_bad_numbers_is_ignored(self, commute):
        from scalarplan.domains import getting_to_work_document
        doc = getting_to_work_document()
        doc["actions"].insert(1, {"name": "stay", "source": "g", "cost": [math.nan, -1],
                                  "outcomes": [{"target": "g", "prob": -math.inf}]})
        assert model_to_document(load_model(doc)) == model_to_document(commute)

    @pytest.mark.parametrize("doc", [ZERO_MASS_TRAP, ZERO_MASS_DEAD_END, ZERO_MASS_DEAD_BRANCH],
                             ids=["trap", "dead-end", "dead-branch"])
    def test_outcomes_of_probability_0_are_dropped(self, doc):
        # the document's order of records, grouped by source state
        assert_loads_like_reference(doc)
        records = sorted(doc["actions"], key=lambda rec: doc["states"].index(rec["source"]))
        kept = dict(doc, actions=[dict(rec, outcomes=[out for out in rec["outcomes"]
                                                      if out["prob"] > 0])
                                  for rec in records])
        assert model_to_document(load_model(doc)) == kept


class TestEnvelope:
    def test_open_policy(self, commute):
        only_walk = StochasticPolicy({0: ((WALK, 1.0),)})
        for price in (evaluate_policy, occupation_measure_of):
            with pytest.raises(OpenPolicy) as err:
                price(commute, only_walk)
            assert set(err.value.open_states) == {1, 2}


class TestEvaluatePolicy:
    def test_single_action_policy_is_its_cost(self, commute):
        run, _, _, _ = commute_policies()
        assert np.allclose(evaluate_policy(commute, run), [1, 0, 20], atol=1e-12)

    def test_optimal_mixture_cost(self, commute):
        *_, mix = commute_policies()
        assert np.allclose(evaluate_policy(commute, mix), [1, 15, 10], atol=1e-9)

    def test_train_policy_against_exhaustive_oracle(self, commute):
        _, _, train, _ = commute_policies()
        got = evaluate_policy(commute, train)
        want = exhaustive_policy_cost(commute, {0: WALK, 1: 0, 2: 0})
        assert np.allclose(got, want, atol=1e-9)
        assert np.allclose(want, [3, 10, 4], atol=1e-12)

    def test_improper_policy_detected(self):
        doc = {"states": ["a", "b", "g"], "initial": "a", "goals": ["g"], "n": 0,
               "bounds": [],
               "actions": [
                   {"name": "spin", "source": "a", "cost": [1],
                    "outcomes": [{"target": "b", "prob": 1.0}]},
                   {"name": "back", "source": "b", "cost": [1],
                    "outcomes": [{"target": "a", "prob": 1.0}]}]}
        model = load_model(doc)
        pol = DeterministicPolicy({0: 0, 1: 0}).to_stochastic()
        with pytest.raises(ImproperPolicy):
            evaluate_policy(model, pol)

    def test_partially_trapped_policy_detected(self):
        # half the mass reaches g; the rest circles b <-> c forever.  LAPACK
        # does not flag this system as singular, so the reach check refuses it
        doc = {"states": ["a", "b", "c", "g"], "initial": "a", "goals": ["g"],
               "n": 0, "bounds": [],
               "actions": [
                   {"name": "go", "source": "a", "cost": [1],
                    "outcomes": [{"target": "b", "prob": 0.5},
                                 {"target": "g", "prob": 0.5}]},
                   {"name": "stay", "source": "b", "cost": [1],
                    "outcomes": [{"target": "b", "prob": 0.3},
                                 {"target": "c", "prob": 0.7}]},
                   {"name": "stay", "source": "c", "cost": [1],
                    "outcomes": [{"target": "c", "prob": 0.9},
                                 {"target": "b", "prob": 0.1}]}]}
        model = load_model(doc)
        pol = DeterministicPolicy({0: 0, 1: 0, 2: 0}).to_stochastic()
        with pytest.raises(ImproperPolicy):
            evaluate_policy(model, pol)

    def test_acyclic_policies_match_exhaustive_expectation(self):
        for seed in range(20):
            model = generate(GeneratorSpec("random", states=9, actions_per_state=1,
                                           secondary=2, seed=seed))
            mapping = {s: 0 for s in range(model.num_states - 1)}
            got = evaluate_policy(model, DeterministicPolicy(mapping).to_stochastic())
            want = exhaustive_policy_cost(model, mapping)
            assert np.allclose(got, want, atol=1e-9)

    def test_cyclic_policy_against_monte_carlo(self):
        doc = {"states": ["a", "g"], "initial": "a", "goals": ["g"], "n": 1,
               "bounds": [10.0],
               "actions": [{"name": "retry", "source": "a", "cost": [2, 1],
                            "outcomes": [{"target": "a", "prob": 0.5},
                                         {"target": "g", "prob": 0.5}]}]}
        model = load_model(doc)
        pol = DeterministicPolicy({0: 0}).to_stochastic()
        got = evaluate_policy(model, pol)
        assert np.allclose(got, [4, 2], atol=1e-10)   # geometric mean 2 steps
        mean, sem = monte_carlo_cost(model, pol, trials=1_000_000, seed=3)
        assert np.all(np.abs(got - mean) <= 3 * sem + 1e-12)

    def test_mixture_linearity_via_occupation_measures(self, commute):
        run, taxi, _, mix = commute_policies()
        x = occupation_measure_of(commute, mix)
        blended = 0.5 * evaluate_policy(commute, run) + 0.5 * evaluate_policy(commute, taxi)
        assert np.allclose(x @ commute.layout.cost, blended, atol=1e-6)


def random_policy(model, rng):
    """A policy over a random subset of states, often open or improper.

    About half the listed states mix two to four actions, listed in
    descending id order, one of them sometimes with probability 0.
    """
    dist = {}
    counts = np.diff(model.layout.offsets)
    for s in range(model.num_states):
        acts = int(counts[s])
        if model.is_goal(s) or not acts or rng.random() < 0.1:
            continue
        k = int(rng.integers(1, min(acts, 4) + 1)) if rng.random() < 0.5 else 1
        chosen = sorted(rng.choice(acts, size=k, replace=False).tolist(), reverse=True)
        p = rng.random(k) + 0.05
        if k > 2 and rng.random() < 0.3:
            p[1] = 0.0
        p /= p.sum()
        dist[s] = tuple(zip(chosen, p.tolist()))
    return StochasticPolicy(dist)


def outcome(f, *args):
    """The bytes of ``f``'s result, or the error it raised (with open states)."""
    try:
        return np.asarray(f(*args)).tobytes()
    except OpenPolicy as exc:
        return ("OpenPolicy", exc.open_states)
    except ImproperPolicy:
        return ("ImproperPolicy",)


class TestLoopForms:
    """The vectorised passes against the depth-first and dict-loop forms."""

    def models(self):
        rng = np.random.default_rng(31)
        for trial in range(120):
            yield rng, random_outcome_model(rng, int(rng.integers(2, 25)), trial % 4,
                                            max_actions=4)
        for seed in range(20):
            yield rng, random_model(seed)

    def test_reachable_states(self):
        for rng, model in self.models():
            for start in (model.initial, int(rng.integers(model.num_states))):
                rooted = dataclasses.replace(model, initial=start)
                assert reachable_states(rooted) == reference_reachable_states(rooted)

    def test_evaluation_and_measure_bytes(self):
        kinds = set()
        for rng, model in self.models():
            for _ in range(3):
                pol = random_policy(model, rng)
                want = outcome(reference_evaluate_policy, model, pol)
                assert outcome(evaluate_policy, model, pol) == want
                kinds.add(want[0] if isinstance(want, tuple) else "ok")
                if isinstance(want, bytes):
                    assert occupation_measure_of(model, pol).tobytes() == \
                        reference_occupation_measure(model, pol).tobytes()
        assert kinds == {"ok", "OpenPolicy", "ImproperPolicy"}

    def test_ladder_visits_each_state_once(self):
        # 60 layers: the last one lies on 2 ** 58 paths from the initial state
        model = ladder_model(60)
        second = model.state_names.index("s0_1")
        assert reachable_states(model) == reference_reachable_states(model) == \
            frozenset(range(model.num_states)) - {second}
        step = DeterministicPolicy({s: 0 for s in range(model.num_states - 1)}).to_stochastic()
        cost = evaluate_policy(model, step)
        assert cost.tobytes() == reference_evaluate_policy(model, step).tobytes()
        assert np.allclose(cost, [60.0, 30.0])
        assert occupation_measure_of(model, step).tobytes() == \
            reference_occupation_measure(model, step).tobytes()
        del step.distribution[model.state_names.index("s59_1")]
        with pytest.raises(OpenPolicy) as info:
            evaluate_policy(model, step)
        assert info.value.open_states == (model.state_names.index("s59_1"),)

    def test_block_solve_matches_dense_lu(self):
        # the whole-envelope LU that the block solve replaced: the same
        # outcome, and values and measures within 1e-12 * (1 + |x|)
        rng = np.random.default_rng(7)
        models = [model for _, model in self.models()]
        models += [wide_outcome_model(seed) for seed in range(30)]
        kinds = set()
        for model in models:
            for _ in range(3):
                pol = random_policy(model, rng)
                want = outcome(dense_evaluate_policy, model, pol)
                got = outcome(evaluate_policy, model, pol)
                kinds.add(want[0] if isinstance(want, tuple) else "ok")
                if isinstance(want, tuple):
                    assert got == want
                    continue
                for ours, dense in ((evaluate_policy, dense_evaluate_policy),
                                    (occupation_measure_of, dense_occupation_measure)):
                    x, y = ours(model, pol), dense(model, pol)
                    assert np.all(np.abs(x - y) <= 1e-12 * (1 + np.abs(y)))
        assert kinds == {"ok", "OpenPolicy", "ImproperPolicy"}


def dense_solves(monkeypatch):
    """The sizes of the systems that go to the dense solve, from now on."""
    sizes = []

    def counted(a, b):
        sizes.append(len(a))
        return solve_linear_system(a, b)

    monkeypatch.setattr("scalarplan.model.solve_linear_system", counted)
    return sizes


def one_action_model(outcomes, cost=(1.0,)):
    """States a, b, c, d and the goal g; one action per state, ``outcomes[s]``."""
    return load_model({
        "states": ["a", "b", "c", "d", "g"], "initial": "a", "goals": ["g"],
        "n": len(cost) - 1, "bounds": [100.0] * (len(cost) - 1),
        "actions": [{"name": "go", "source": s, "cost": list(cost),
                     "outcomes": [{"target": t, "prob": p} for t, p in outs]}
                    for s, outs in outcomes.items()]})


class TestBlockSolve:
    """Policy systems solved one strongly connected block at a time."""

    def test_acyclic_policies_need_no_dense_solve(self, monkeypatch):
        tyres = finite_penalty_transform(generate(GeneratorSpec("tireworld", n=20, d=15, c=3)),
                                         np.array([500.0, 1.0, 1.0, 1.0]))
        cuts = solve_cssp(tyres).mixture.policies
        ladder = ladder_model(60)
        step = DeterministicPolicy({s: 0 for s in range(ladder.num_states - 1)})
        priced = [(tyres, policy) for policy in cuts] + [(ladder, step)]
        assert min(len(reference_envelope(m, p.to_stochastic())) for m, p in priced) > 50
        sizes = dense_solves(monkeypatch)
        mix_policies(tyres, cuts)
        for model, policy in priced:
            evaluate_policy(model, policy.to_stochastic())
            occupation_measure_of(model, policy.to_stochastic())
        assert sizes == []

    def test_self_loop_is_divided_out(self):
        model = one_action_model({"a": [("a", 0.5), ("g", 0.5)]})
        policy = DeterministicPolicy({0: 0}).to_stochastic()
        assert evaluate_policy(model, policy).tolist() == [2.0]
        assert occupation_measure_of(model, policy).tolist() == [2.0]

    @pytest.mark.parametrize("outcomes", [
        {"a": [("a", 1.0)]},                                  # absorbing self-loop
        {"a": [("b", 1.0)], "b": [("a", 1.0)]},               # closed 2-cycle
        {"a": [("b", 0.5), ("g", 0.5)], "b": [("c", 1.0)],    # a closed block behind
         "c": [("d", 1.0)], "d": [("c", 1.0)]},               # an open one
    ], ids=["absorbing", "cycle", "closed-behind-open"])
    def test_traps_are_improper(self, outcomes):
        model = one_action_model(outcomes)
        policy = DeterministicPolicy({s: 0 for s in range(len(outcomes))}).to_stochastic()
        for price in (evaluate_policy, occupation_measure_of):
            with pytest.raises(ImproperPolicy):
                price(model, policy)

    def test_chained_cyclic_blocks_match_dense_lu(self, monkeypatch):
        # {a, b} feeds {c, d}, which feeds the goal
        model = one_action_model({
            "a": [("b", 0.6), ("c", 0.3), ("a", 0.1)], "b": [("a", 0.7), ("d", 0.3)],
            "c": [("d", 0.8), ("g", 0.2)], "d": [("c", 0.4), ("g", 0.5), ("d", 0.1)]},
            cost=(1.0, 0.25, 3.0))
        policy = DeterministicPolicy({s: 0 for s in range(4)}).to_stochastic()
        sizes = dense_solves(monkeypatch)
        got = evaluate_policy(model, policy)
        assert sizes == [2, 2]
        want = dense_evaluate_policy(model, policy)
        assert np.all(np.abs(got - want) <= 1e-12 * (1 + np.abs(want)))
        assert got.tobytes() == reference_evaluate_policy(model, policy).tobytes()
        x = occupation_measure_of(model, policy)
        y = dense_occupation_measure(model, policy)
        assert np.all(np.abs(x - y) <= 1e-12 * (1 + np.abs(y)))
        assert x.tobytes() == reference_occupation_measure(model, policy).tobytes()


class TestFeasibilityCheck:
    def test_boundary_feasible(self, commute):
        assert feasibility_check(commute, np.array([1.0, 15.0, 10.0]))

    def test_violation(self, commute):
        assert not feasibility_check(commute, np.array([1.0, 15.5, 10.0]))

    def test_unconstrained_always_true(self, two_optima):
        assert feasibility_check(two_optima, np.array([123.0]))

    def test_dimension_mismatch(self, commute):
        with pytest.raises(DimensionMismatch):
            feasibility_check(commute, np.array([1.0, 15.0]))

    def test_0d_and_2d_costs_are_dimension_mismatches(self, commute, two_optima):
        with pytest.raises(DimensionMismatch, match=r"^cost vector has shape \(\), expected \(1,\)$"):
            feasibility_check(two_optima, 3.0)
        with pytest.raises(DimensionMismatch, match=r"shape \(1, 3\), expected \(3,\)$"):
            feasibility_check(commute, [[1.0, 15.0, 10.0]])


class TestFinitePenaltyTransform:
    def test_0d_and_2d_penalties_are_dimension_mismatches(self, commute, two_optima):
        with pytest.raises(DimensionMismatch, match=r"^penalty has shape \(\), expected \(1,\)$"):
            finite_penalty_transform(two_optima, 1000.0)
        with pytest.raises(DimensionMismatch, match=r"shape \(1, 3\), expected \(3,\)$"):
            finite_penalty_transform(commute, [[1000.0, 1.0, 1.0]])

    def test_tireworld_stuck_states_gain_actions(self):
        model = generate(GeneratorSpec("tireworld", n=3, d=2, c=1))
        counts = np.diff(model.layout.offsets)
        stuck = [s for s in range(model.num_states) if not model.is_goal(s) and not counts[s]]
        assert stuck, "raw tyre world should contain stuck states"
        fixed = finite_penalty_transform(model, np.array([100.0, 1.0]))
        counts = np.diff(fixed.layout.offsets)
        assert all(model.is_goal(s) or counts[s] for s in range(fixed.num_states))

    def test_goal_states_unchanged(self, commute):
        out = finite_penalty_transform(commute, np.array([99.0, 1.0, 1.0]))
        g = out.state_names.index("g")
        assert out.layout.offsets[g] == out.layout.offsets[g + 1]

    def test_large_penalty_leaves_optimum_alone(self, commute):
        from scalarplan.model import GIVE_UP_NAME
        _, base_cost, _ = flat_dual_solve(commute)
        out = finite_penalty_transform(commute, np.array([1000.0, 1.0, 1.0]))
        policy, cost, _ = flat_dual_solve(out)
        assert np.allclose(cost, base_cost, atol=1e-7)
        used = {out.action_names[out.layout.offsets[s] + a]
                for s, dist in policy.distribution.items() for a, _ in dist}
        assert not any(name.startswith(GIVE_UP_NAME) for name in used)

    def test_idempotent_in_effect(self, commute):
        pen = np.array([1000.0, 1.0, 1.0])
        once = finite_penalty_transform(commute, pen)
        twice = finite_penalty_transform(once, pen)
        assert model_to_document(twice) == model_to_document(once)


def zero_mass_duplicates_document():
    """``ZERO_MASS_TRAP`` with duplicate outcomes and one more of probability 0."""
    doc = json.loads(json.dumps(ZERO_MASS_TRAP))
    doc["actions"][0]["outcomes"] = [
        {"target": "g", "prob": 0.5}, {"target": "t", "prob": 0.0},
        {"target": "g", "prob": 0.5}, {"target": "s0", "prob": 0.0}]
    doc["actions"][1]["outcomes"].append({"target": "t", "prob": 0.0})
    return doc


def tyres():
    return generate(GeneratorSpec("tireworld", n=6, d=5, c=2))


PENALTY = [7.0, 1.0, 1.0]
# models besides the goldens; a transformed model keeps its give-up actions
# under the same penalty and gains ones named __give_up__2 under another
TRANSFORM_CASES = {
    "tireworld-6-5-2": tyres,
    "given-up-same": lambda: finite_penalty_transform(tyres(), PENALTY),
    "given-up-other": lambda: finite_penalty_transform(tyres(), [9.0, 1.0, 1.0]),
    **{f"random-{seed}": functools.partial(random_model, seed) for seed in range(3)},
    **{f"outcomes-{seed}": lambda seed=seed: load_model(random_outcome_document(
        np.random.default_rng(seed), 12, 2)) for seed in range(3)},
    "zero-mass-duplicates": lambda: load_model(zero_mass_duplicates_document()),
}


@pytest.mark.parametrize("name", ["commute", "staircase", "pathological", "two_optima",
                                  *TRANSFORM_CASES])
def test_transform_builds_the_layout_load_model_builds(name, request):
    model = TRANSFORM_CASES[name]() if name in TRANSFORM_CASES else request.getfixturevalue(name)
    out = finite_penalty_transform(model, PENALTY[:model.n + 1])
    want = load_model(model_to_document(out))
    assert_layout_invariants(out)
    assert out.action_names == want.action_names
    for field in dataclasses.fields(out.layout):
        a, b = getattr(out.layout, field.name), getattr(want.layout, field.name)
        if isinstance(a, np.ndarray):
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), field.name
        else:
            assert a == b, field.name


class TestPolicyNames:
    def test_round_trip(self, commute):
        *_, mix = commute_policies()
        doc = policy_to_names(commute, mix)
        assert doc == {"s0": [["run", 0.5], ["taxi", 0.5]]}
        again = policy_from_names(commute, doc)
        assert again.distribution == mix.distribution

    @pytest.mark.parametrize("doc", MALFORMED_POLICIES)
    def test_malformed_policies(self, commute, doc):
        with pytest.raises(MalformedPolicy):
            policy_from_names(commute, doc)

    @pytest.mark.parametrize("dist", [{0: ((0, float("nan")),)},
                                      {0: ((0, 0.5), (1, float("nan")))},
                                      {0: ((0, -0.5), (1, 1.5))},
                                      {0: ((0, 0.5),)}])
    def test_evaluation_rejects_bad_distributions(self, commute, dist):
        for price in (evaluate_policy, occupation_measure_of):
            with pytest.raises(MalformedPolicy):
                price(commute, StochasticPolicy(dist))
