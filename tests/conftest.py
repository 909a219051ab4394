import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from scalarplan.domains import GeneratorSpec, generate


@pytest.fixture(scope="session")
def commute():
    return generate(GeneratorSpec("getting-to-work"))


@pytest.fixture(scope="session")
def staircase():
    return generate(GeneratorSpec("coord-interesting"))


@pytest.fixture(scope="session")
def pathological():
    return generate(GeneratorSpec("coord-pathological"))


@pytest.fixture(scope="session")
def two_optima():
    return generate(GeneratorSpec("strong-eps-example"))


# Edits that make the getting-to-work document malformed; loading the result
# must raise MalformedModel, and ``scalarplan solve`` must exit 1 on it
MALFORMED = [
    lambda d: d.pop("states"),
    lambda d: d["actions"][0].pop("cost"),
    lambda d: d["actions"][0].__setitem__("cost", [1, 2]),
    lambda d: d.__setitem__("initial", "nope"),
    lambda d: d.__setitem__("bounds", [-1.0, 1.0]),
    lambda d: d["actions"][0]["outcomes"][0].__setitem__("prob", float("nan")),
    lambda d: d["actions"][0]["outcomes"][0].__setitem__("prob", float("inf")),
    lambda d: d["actions"][0]["outcomes"][0].pop("target"),
    lambda d: d["actions"][0]["outcomes"][0].pop("prob"),
    lambda d: d["actions"].__setitem__(0, "name,source,cost,outcomes"),
    lambda d: d["actions"][0]["outcomes"].__setitem__(0, ["g", 1.0]),
    lambda d: d["actions"][0]["outcomes"][0].__setitem__("prob", "half"),
    lambda d: d.update(n=True, bounds=[15.0],
                       actions=[dict(a, cost=a["cost"][:2]) for a in d["actions"]]),
    # wrongly typed fields
    lambda d: d.__setitem__("states", 5),
    lambda d: d.__setitem__("goals", 5),
    lambda d: d.__setitem__("actions", 5),
    lambda d: d["actions"][0].__setitem__("outcomes", 5),
    lambda d: d.__setitem__("initial", ["s0"]),
    lambda d: d.__setitem__("goals", [["g"]]),
    lambda d: d["actions"][0].__setitem__("source", ["s0"]),
    lambda d: d["actions"][0]["outcomes"][0].__setitem__("target", {"g": 1}),
    lambda d: d.__setitem__("goals", "g"),
    lambda d: d.update(states="sg", initial="s", goals=["g"], n=0, bounds=[],
                       actions=[{"name": "x", "source": "s", "cost": [1],
                                 "outcomes": [{"target": "g", "prob": 1.0}]}]),
    lambda d: d.__setitem__("bounds", {"effort": 15.0}),
    lambda d: d["actions"][0].__setitem__("cost", "1,0,20"),
    # JSON booleans where numbers belong, and a name that is not a string
    lambda d: d["actions"][0].__setitem__("cost", [True, 0, 20]),
    lambda d: d["actions"][0].__setitem__("cost", [1, False, 20]),
    lambda d: d["actions"][0]["outcomes"][0].__setitem__("prob", True),
    lambda d: d.__setitem__("bounds", [True, 10.0]),
    lambda d: d.__setitem__("bounds", [15.0, False]),
    lambda d: d["actions"][0].__setitem__("name", ["run"]),
    lambda d: d["actions"][0].__setitem__("name", 7),
    # strings that parse as numbers are not numbers either
    lambda d: d["actions"][0].__setitem__("cost", ["1", 0, 20]),
    lambda d: d["actions"][0]["outcomes"][0].__setitem__("prob", "1.0"),
    lambda d: d.__setitem__("bounds", ["15", 10.0]),
    # integers that float() cannot hold
    lambda d: d["actions"][0].__setitem__("cost", [1, 0, 10 ** 400]),
    lambda d: d.__setitem__("bounds", [15.0, -10 ** 400]),
    lambda d: d["actions"][0]["outcomes"][0].__setitem__("prob", 10 ** 400),
]

# Texts that json cannot parse although the parser takes them in: nesting too
# deep for its recursion limit, and an integer literal longer than Python's
# 4,300-digit conversion limit.  A model or policy file holding one is
# malformed, and the CLI exits 1 on it
UNPARSABLE = [
    pytest.param("[" * 100000 + "]" * 100000, id="deep-arrays"),
    pytest.param('{"states": [' * 5000 + "]}" * 5000, id="deep-objects"),
    pytest.param('{"n": ' + "7" * 5001 + "}", id="long-integer"),
    pytest.param("{", id="truncated"),
]

# Policy documents for the getting-to-work model that are malformed;
# ``policy_from_names`` must raise MalformedPolicy, and ``scalarplan eval``
# must exit 1 on them
MALFORMED_POLICIES = [
    [1, 2],
    "s0",
    {"s0": 5},
    {"s0": {"run": 1.0}},
    {"s0": ["run"]},
    {"s0": [["run"]]},
    {"s0": [["run", 0.5, 0.5]]},
    {"s0": [["run", None]]},
    {"s0": [["run", True]]},
    {"s0": [["run", "half"]]},
    {"s0": [["run", float("nan")]]},
    {"s0": [["run", 0.5], ["taxi", float("nan")]]},
    {"s0": [["run", -0.5], ["taxi", 1.5]]},
    {"s0": [["run", 0.5]]},
    {"s0": [["run", "1.0"]]},
    {"s0": [["run", 10 ** 400]]},
    {"nope": [["run", 1.0]]},
    {"s0": [["fly", 1.0]]},
]


def assert_loads_like_reference(doc):
    """``load_model`` gives ``oracles.reference_load_model``'s model byte for
    byte, or raises its exception class and message.

    Where the reference overflows on an integer beyond double range,
    ``load_model`` raises MalformedModel instead.
    """
    from oracles import reference_load_model
    from scalarplan.errors import MalformedModel
    from scalarplan.model import load_model
    try:
        want = reference_load_model(doc)
    except OverflowError:
        with pytest.raises(MalformedModel):
            load_model(doc)
        return
    except Exception as exc:
        with pytest.raises(Exception) as got:
            load_model(doc)
        assert (type(got.value), str(got.value)) == (type(exc), str(exc))
        return
    got = load_model(doc)
    assert (got.state_names, got.initial, got.goals, got.action_names) \
        == (want.state_names, want.initial, want.goals, want.action_names)
    assert (got.layout.offset_list, got.layout.successors) \
        == (want.layout.offset_list, want.layout.successors)
    for name in ("offsets", "cost", "succ", "target", "probs", "state", "pred_ptr",
                 "pred_ids", "goal_mask"):
        a, b = getattr(got.layout, name), getattr(want.layout, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
    assert (got.bounds.dtype, got.bounds.tobytes()) == (want.bounds.dtype, want.bounds.tobytes())


def random_model(seed, states=None, actions=3, secondary=2):
    import numpy as np
    rng = np.random.default_rng(seed + 777)
    if states is None:
        states = int(rng.integers(6, 41))
    return generate(GeneratorSpec(
        "random", states=states, actions_per_state=actions,
        secondary=secondary, seed=seed))


def random_outcome_document(rng, states, n, max_actions=3, max_successors=3):
    """Random model document with 0..max_actions actions per non-goal state.

    Outcome lists draw 1..max_successors targets with replacement, so they
    hold repeated targets and self-loops; costs are arbitrary floats.  The
    last state is the goal.  Feasibility and properness are not arranged.
    """
    import numpy as np
    names = [f"s{i}" for i in range(states)]
    actions = []
    for s in range(states - 1):
        for a in range(int(rng.integers(0, max_actions + 1))):
            k = int(rng.integers(1, max_successors + 1))
            mass = rng.random(k) + 0.05
            cost = rng.random(n + 1) * 10.0
            cost[0] += 0.1
            actions.append({
                "name": f"a{a}", "source": names[s], "cost": cost.tolist(),
                "outcomes": [{"target": names[int(t)], "prob": float(p)}
                             for t, p in zip(rng.integers(0, states, size=k),
                                             mass / mass.sum())]})
    return {"states": names, "initial": names[0], "goals": [names[-1]],
            "n": n, "bounds": [1.0] * n, "actions": actions}


def random_outcome_model(rng, states, n, max_actions=3, max_successors=3):
    """The model of ``random_outcome_document``."""
    from scalarplan.model import load_model
    return load_model(random_outcome_document(rng, states, n, max_actions, max_successors))


def ladder_model(layers):
    """Two states per layer; each has one action that reaches both states of
    the next layer with probability 1/2 (the last layer reaches the goal).

    A state of layer ``i`` lies on ``2 ** (i - 1)`` paths from the initial
    state, so a pass that keeps a copy of a state per path never ends.
    """
    from scalarplan.model import load_model
    names = [f"s{i}_{j}" for i in range(layers) for j in (0, 1)] + ["g"]
    actions = [{"name": "step", "source": f"s{i}_{j}", "cost": [1.0, 0.5],
                "outcomes": [{"target": t, "prob": 0.5}
                             for t in (names[2 * i + 2:2 * i + 4] if i + 1 < layers
                                       else ["g", "g"])]}
               for i in range(layers) for j in (0, 1)]
    return load_model({"states": names, "initial": names[0], "goals": ["g"],
                       "n": 1, "bounds": [float(layers)], "actions": actions})


def wide_outcome_model(seed):
    """Acceptance-family instance ``seed`` with wide outcome lists.

    Every action but the chain's is widened to 4..6 outcomes: it keeps its
    targets, gains a self-loop, and draws the rest with replacement, so some
    targets repeat; its probabilities are drawn afresh.  The deterministic
    chain actions are kept, so the chain policy stays proper, but the bounds
    are still the narrow instance's, so some widened instances have no
    feasible policy.
    """
    import numpy as np
    from scalarplan.domains import random_cssp_document
    from scalarplan.model import load_model
    states = 6 + (7 * seed) % 35
    doc = random_cssp_document(states, 2 + seed % 2, 1 + seed % 2, seed)
    rng = np.random.default_rng([seed, 6])
    for rec in doc["actions"]:
        if rec["name"] == "a0":
            continue
        targets = [o["target"] for o in rec["outcomes"]] + [rec["source"]]
        extra = int(rng.integers(4, 7)) - len(targets)
        targets += [doc["states"][int(t)] for t in rng.integers(0, states, size=extra)]
        mass = rng.random(len(targets)) + 0.05
        rec["outcomes"] = [{"target": t, "prob": float(p)}
                           for t, p in zip(targets, mass / mass.sum())]
    return load_model(doc)


def lp_of(sense, objective, rows=(), rhs=(), equal=()):
    """A ``LinearProgram`` from nested lists; no rows means an empty block."""
    import numpy as np
    from scalarplan.linalg import LinearProgram
    rows = np.array(rows, dtype=float).reshape(len(rhs), len(objective))
    return LinearProgram(sense, objective, rows, rhs, equal)
