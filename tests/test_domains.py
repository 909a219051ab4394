import hashlib
import json

import numpy as np
import pytest

from oracles import action_table, proper_policy_costs, reference_envelope
from scalarplan.cli import main
from scalarplan.domains import (
    GeneratorSpec,
    generate,
    random_cssp_document,
    tireworld_document,
)
from scalarplan.errors import BadSpec
from scalarplan.extract import flat_dual_solve
from scalarplan.model import finite_penalty_transform, load_model, model_to_document


class TestFixedInstances:
    def test_commute_matches_figure(self, commute):
        assert commute.num_states == 4
        names = {a.name for a in action_table(commute)[0]}
        assert names == {"run", "taxi", "walk"}
        walk = action_table(commute)[0][2]
        assert np.allclose(walk.cost, [1, 0, 1])
        assert np.allclose(sorted(walk.probs), [0.5, 0.5])
        assert np.allclose(commute.bounds, [15, 10])

    def test_staircase_matches_figure(self, staircase):
        assert staircase.num_states == 3
        assert np.allclose(staircase.bounds, [15, 15])
        costs = {a.name: tuple(a.cost) for acts in action_table(staircase) for a in acts}
        assert costs == {
            "a0": (1, 40, 40), "a1": (5, 5, 5), "a2": (3, 10, 0),
            "a3": (1, 0, 20), "a4": (1, 20, 0), "a5": (1, 0, 20),
        }

    def test_pathological_matches_figure(self, pathological):
        assert pathological.num_states == 2
        assert len(action_table(pathological)[0]) == 3
        costs = [tuple(a.cost) for a in action_table(pathological)[0]]
        assert costs == [(10, 1, 1), (1, 11, 0), (1, 0, 11)]
        assert np.allclose(pathological.bounds, [1, 1])

    def test_two_optima_instance(self, two_optima):
        from scalarplan.model import DeterministicPolicy
        assert two_optima.n == 0
        assert two_optima.num_states == 5
        # dedupe enumerated maps by their envelope restriction: 3 distinct
        # proper policies, two of which (direct, detour via s3) cost 4
        distinct = {}
        for mapping, cost in proper_policy_costs(two_optima):
            env = reference_envelope(two_optima, DeterministicPolicy(mapping).to_stochastic())
            key = tuple(sorted((s, a) for s, a in mapping.items() if s in env))
            distinct[key] = round(float(cost[0]), 9)
        assert sorted(distinct.values()) == [4.0, 4.0, 7.0]


class TestTireworld:
    def test_parameters_validated(self):
        with pytest.raises(BadSpec):
            GeneratorSpec("tireworld", n=1, d=1, c=1)
        with pytest.raises(BadSpec):
            GeneratorSpec("tireworld", n=4, d=5, c=2)

    def test_flat_probability_and_purchases(self):
        model = generate(GeneratorSpec("tireworld", n=4, d=3, c=2))
        drives = [a for acts in action_table(model) for a in acts
                  if a.name.startswith("drive")]
        assert drives and all(np.allclose(sorted(a.probs), [0.5, 0.5]) for a in drives)
        buys = [a for acts in action_table(model) for a in acts
                if a.name.startswith("buy")]
        assert buys
        for a in buys:
            assert a.cost[0] == 1.0 and a.cost[1:].sum() == 1.0
        assert model.n == 2

    def test_raw_model_validates_and_has_dead_ends(self):
        from scalarplan.errors import UnreachableGoal
        from scalarplan.heuristics import ideal_point_heuristic
        model = generate(GeneratorSpec("tireworld", n=3, d=3, c=1))
        load_model(model_to_document(model))   # re-validates
        counts = np.diff(model.layout.offsets)
        stuck = [s for s in range(model.num_states) if not model.is_goal(s) and not counts[s]]
        assert stuck
        # the safe route avoids the stuck states, so the exact LP still solves,
        # but heuristic construction requires the finite-penalty transform
        _, cost, _ = flat_dual_solve(model)
        assert cost[0] > 0
        with pytest.raises(UnreachableGoal):
            ideal_point_heuristic(model)

    def test_transformed_model_solvable(self):
        model = generate(GeneratorSpec("tireworld", n=3, d=2, c=2))
        fixed = finite_penalty_transform(model, np.array([500.0, 1.0, 1.0]))
        policy, cost, _ = flat_dual_solve(fixed)
        assert cost[0] > 0
        assert policy.distribution


class TestRandom:
    def test_seeded_determinism(self):
        a = generate(GeneratorSpec("random", states=20, actions_per_state=3,
                                   secondary=2, seed=7))
        b = generate(GeneratorSpec("random", states=20, actions_per_state=3,
                                   secondary=2, seed=7))
        assert model_to_document(a) == model_to_document(b)

    def test_different_seeds_differ(self):
        a = generate(GeneratorSpec("random", states=20, actions_per_state=3,
                                   secondary=2, seed=1))
        b = generate(GeneratorSpec("random", states=20, actions_per_state=3,
                                   secondary=2, seed=2))
        assert model_to_document(a) != model_to_document(b)

    def test_instances_validate_and_are_feasible(self):
        for seed in range(25):
            model = generate(GeneratorSpec("random", states=12 + seed,
                                           actions_per_state=3, secondary=2,
                                           seed=seed))
            load_model(model_to_document(model))
            _, cost, _ = flat_dual_solve(model)   # raises Infeasible on failure
            assert np.all(cost[1:] <= model.bounds + 1e-6)

    def test_bad_spec(self):
        with pytest.raises(BadSpec):
            GeneratorSpec("random", states=1, actions_per_state=1, secondary=0)
        with pytest.raises(BadSpec):
            GeneratorSpec("no-such-kind")


def _digest(*docs):
    h = hashlib.sha256()
    for doc in docs:
        h.update(json.dumps(doc, sort_keys=True, separators=(",", ":")).encode())
    return h.hexdigest()


class TestPinnedDocuments:
    """The generators' documents, byte for byte.

    The benchmark's workloads and the acceptance family are built from
    these documents, and a random document's bounds come from a policy
    evaluation, so a change to evaluation arithmetic that reached the
    generator would silently change every input.  These digests fail it.
    """

    @pytest.mark.parametrize("seed, digest", [
        (0, "beca8832da1db4fc28281c96690bbc04ee24aee50c1b00d25293d873fe373863"),
        (1, "18682f8e29050c0f99fcf54080a4ce7d25464247445a16ff9863afb9ae5ada0f"),
        (2, "ff86caab9b6954b3d35b1f12620336f3b11b7a9773fcd90088541f184e492e1f"),
    ], ids=["g0", "g1", "g2"])
    def test_random_1000(self, seed, digest):
        assert _digest(random_cssp_document(1000, 3, 2, seed)) == digest

    def test_acceptance_family(self):
        docs = (random_cssp_document(6 + (7 * i) % 35, 2 + i % 2, 1 + i % 2, i)
                for i in range(200))
        assert _digest(*docs) == \
            "725b4d660248b43ba8511880619559765443eabd3e93c4be72b2cbd75f7555c9"

    def test_acceptance_family_to_seed_1199(self):
        docs = (random_cssp_document(6 + (7 * i) % 35, 2 + i % 2, 1 + i % 2, i)
                for i in range(200, 1200))
        assert _digest(*docs) == \
            "bf904a7a085cc54af45214b50765658aaaca08e737dab2f8b1c8c0628796b117"

    def test_random_2000(self):
        assert _digest(random_cssp_document(2000, 3, 2, 0)) == \
            "8ead1f036af3580337fa803cd7601a24641e95bf0e3fa19cf22c7b59e94a15ee"

    def test_tireworld(self):
        assert _digest(tireworld_document(100, 80, 4)) == \
            "82868c952e193f19d98127abb0f4c8580c54977079f25e59215942b881f22eaf"

    @pytest.mark.parametrize("args, digest", [
        (["--kind", "getting-to-work"],
         "d16ad8f8f62eedcb780f6f70c143f407fcda310198406d7e8f5a76fc5cffcc09"),
        (["--kind", "coord-interesting"],
         "e9aa34f17d9e88e42ac90c616f97ccf0eb8ce3119244ecc5e1d9d12feea372ee"),
        (["--kind", "coord-pathological"],
         "1dc3846da82cdd2b2132bcd8d90ca3480ade2fb95354dc0ec32e667ec2ee292a"),
        (["--kind", "strong-eps-example"],
         "d4738cf1d8d3c57f9e0dacebdab0ac032782d9a3d4bd957498ca6c86af31f012"),
        (["--kind", "tireworld", "--tw-n", "5", "--tw-d", "4", "--tw-c", "2"],
         "f265198542c627fb0379768d4b1d00ff203c799adfddd48c26adc2be76bf36e0"),
        (["--kind", "random", "--states", "30", "--actions-per-state", "3",
          "--n-secondary", "2", "--seed", "7"],
         "e90f723abb68d6e968d9bce9aff16c5b61c4a8e8831103f72538467dafa441d7"),
    ], ids=["getting-to-work", "coord-interesting", "coord-pathological",
            "strong-eps-example", "tireworld", "random"])
    def test_gen_output(self, tmp_path, args, digest):
        out = tmp_path / "model.json"
        assert main(["gen", *args, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
