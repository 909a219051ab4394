"""Built-in benchmark instances and seeded generators.

Four fixed desk-scale instances exercise every corner of the solver: a
commute problem whose optimum is a strict mixture, a two-constraint problem
with an interesting multiplier trajectory, a problem where no axis-aligned
multiplier improves on the origin, and an unconstrained problem with two
optimal policies.
The tyre-world and random generators produce larger families for oracle
testing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import BadSpec, ImproperPolicy, OpenPolicy
from .model import (
    CsspModel,
    DeterministicPolicy,
    load_model,
    policy_entries,
    policy_system,
    policy_values,
)

KINDS = (
    "getting-to-work",
    "coord-interesting",
    "coord-pathological",
    "strong-eps-example",
    "tireworld",
    "random",
)


@dataclass(frozen=True)
class GeneratorSpec:
    kind: str
    n: Optional[int] = None                # tireworld: network size
    d: Optional[int] = None                # tireworld: start distance
    c: Optional[int] = None                # tireworld: currency count
    states: Optional[int] = None           # random: state count
    actions_per_state: Optional[int] = None
    secondary: Optional[int] = None        # random: secondary-cost count
    seed: Optional[int] = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise BadSpec(f"unknown generator kind {self.kind!r}")
        if self.kind == "tireworld":
            if self.n is None or self.d is None or self.c is None:
                raise BadSpec("tireworld needs n, d and c")
            if self.n < 2 or not 1 <= self.d <= self.n or self.c < 1:
                raise BadSpec("tireworld requires n >= 2, 1 <= d <= n, c >= 1")
        if self.kind == "random":
            if self.states is None or self.actions_per_state is None \
                    or self.secondary is None:
                raise BadSpec("random needs states, actions_per_state and secondary")
            if self.states < 2 or self.actions_per_state < 1 or self.secondary < 0:
                raise BadSpec("random requires states >= 2, actions >= 1, secondary >= 0")


def generate(spec: GeneratorSpec) -> CsspModel:
    """Instantiate the model described by ``spec`` (validated on load)."""
    if spec.kind == "getting-to-work":
        doc = getting_to_work_document()
    elif spec.kind == "coord-interesting":
        doc = coord_interesting_document()
    elif spec.kind == "coord-pathological":
        doc = coord_pathological_document()
    elif spec.kind == "strong-eps-example":
        doc = strong_eps_example_document()
    elif spec.kind == "tireworld":
        doc = tireworld_document(spec.n, spec.d, spec.c)
    else:
        doc = random_cssp_document(spec.states, spec.actions_per_state,
                                   spec.secondary, spec.seed or 0)
    return load_model(doc)


# ---------------------------------------------------------------------------
# fixed instances
# ---------------------------------------------------------------------------

def getting_to_work_document() -> dict:
    """Commute from home to work: minimise time s.t. price <= 15, effort <= 10.

    Walking to the station costs [1 0 1] and the train is cancelled half the
    time; running and the taxi go straight to work.  The optimum is the even
    run/taxi mixture with cost (1, 15, 10).
    """
    return {
        "states": ["s0", "s1", "s2", "g"],
        "initial": "s0",
        "goals": ["g"],
        "n": 2,
        "bounds": [15.0, 10.0],
        "actions": [
            {"name": "run", "source": "s0", "cost": [1, 0, 20],
             "outcomes": [{"target": "g", "prob": 1.0}]},
            {"name": "taxi", "source": "s0", "cost": [1, 30, 0],
             "outcomes": [{"target": "g", "prob": 1.0}]},
            {"name": "walk", "source": "s0", "cost": [1, 0, 1],
             "outcomes": [{"target": "s1", "prob": 0.5},
                          {"target": "s2", "prob": 0.5}]},
            {"name": "train", "source": "s1", "cost": [1, 20, 0],
             "outcomes": [{"target": "g", "prob": 1.0}]},
            {"name": "walk", "source": "s2", "cost": [3, 0, 6],
             "outcomes": [{"target": "g", "prob": 1.0}]},
        ],
    }


def coord_interesting_document() -> dict:
    """Two-constraint instance whose multiplier search staircases to [0.2, 0.2]."""
    acts = [
        ("a0", "s0", "g", [1, 40, 40]),
        ("a1", "s0", "s1", [5, 5, 5]),
        ("a2", "s0", "s1", [3, 10, 0]),
        ("a3", "s0", "s1", [1, 0, 20]),
        ("a4", "s1", "g", [1, 20, 0]),
        ("a5", "s1", "g", [1, 0, 20]),
    ]
    return {
        "states": ["s0", "s1", "g"],
        "initial": "s0",
        "goals": ["g"],
        "n": 2,
        "bounds": [15.0, 15.0],
        "actions": [
            {"name": n, "source": s, "cost": c,
             "outcomes": [{"target": t, "prob": 1.0}]}
            for n, s, t, c in acts
        ],
    }


def coord_pathological_document() -> dict:
    """Instance where no single-coordinate move improves on the origin.

    Only the expensive action is feasible, yet the cheap ones dominate every
    axis-aligned multiplier, so no multiplier on an axis improves on L = 1 at
    the origin while the true maximum is L = 10.
    """
    acts = [
        ("a0", [10, 1, 1]),
        ("a1", [1, 11, 0]),
        ("a2", [1, 0, 11]),
    ]
    return {
        "states": ["s0", "g"],
        "initial": "s0",
        "goals": ["g"],
        "n": 2,
        "bounds": [1.0, 1.0],
        "actions": [
            {"name": n, "source": "s0", "cost": c,
             "outcomes": [{"target": "g", "prob": 1.0}]}
            for n, c in acts
        ],
    }


def strong_eps_example_document() -> dict:
    """Unconstrained instance with two optimal policies (direct and detour).

    A value function can be consistent along the direct route alone while
    hiding the equally good detour.  Either route alone is an optimal
    policy, so the pipeline needs only the one its search finds.
    """
    acts = [
        ("direct", "s0", "g", 4),
        ("enter", "s0", "s1", 1),
        ("upper", "s1", "s2", 1),
        ("lower", "s1", "s3", 1),
        ("exit-upper", "s2", "g", 5),
        ("exit-lower", "s3", "g", 2),
    ]
    return {
        "states": ["s0", "s1", "s2", "s3", "g"],
        "initial": "s0",
        "goals": ["g"],
        "n": 0,
        "bounds": [],
        "actions": [
            {"name": n, "source": s, "cost": [c],
             "outcomes": [{"target": t, "prob": 1.0}]}
            for n, s, t, c in acts
        ],
    }


# ---------------------------------------------------------------------------
# tyre world
# ---------------------------------------------------------------------------

def tireworld_document(n: int, d: int, c: int) -> dict:
    """Triangular tyre world with purchases in ``c`` currencies.

    Convention used here: main-road cities l0..ln with the goal at ln, and a
    detour stop r_i per layer carrying a tyre shop.  Each layer has one
    short-route edge (l_i -> l_{i+1}) and two safe-route edges
    (l_i -> r_i -> l_{i+1}).  Every drive gets a flat tyre with probability
    0.5; the car holds one spare; with a flat and no spare (and no shop) the
    car is stuck.  Start is l_{n-d} with no spare.  Purchases at shops cost
    one unit of a single currency, cycled per shop.
    """
    def sname(loc: str, spare: int, flat: int) -> str:
        return f"{loc}|spare{spare}|flat{flat}"

    locs = [f"l{i}" for i in range(n + 1)]
    stops = [f"r{i}" for i in range(n)]
    edges = []
    for i in range(n):
        edges.append((locs[i], locs[i + 1]))   # short route
        edges.append((locs[i], stops[i]))      # safe route, leg 1
        edges.append((stops[i], locs[i + 1]))  # safe route, leg 2
    out_edges = {}
    for a, b in edges:
        out_edges.setdefault(a, []).append(b)
    shop_currency = {stops[i]: i % c for i in range(n)}
    goal_loc = locs[n]
    start = sname(locs[n - d], 0, 0)

    states, actions = [], []
    seen = set()
    queue = [(locs[n - d], 0, 0)]
    while queue:
        loc, spare, flat = queue.pop()
        name = sname(loc, spare, flat)
        if name in seen:
            continue
        seen.add(name)
        states.append(name)
        if loc == goal_loc:
            continue
        if flat == 0:
            for nxt in out_edges.get(loc, []):
                actions.append({
                    "name": f"drive-{nxt}",
                    "source": name,
                    "cost": [1.0] + [0.0] * c,
                    "outcomes": [
                        {"target": sname(nxt, spare, 0), "prob": 0.5},
                        {"target": sname(nxt, spare, 1), "prob": 0.5},
                    ],
                })
                queue.append((nxt, spare, 0))
                queue.append((nxt, spare, 1))
        if flat == 1 and spare == 1:
            actions.append({
                "name": "change-tyre",
                "source": name,
                "cost": [1.0] + [0.0] * c,
                "outcomes": [{"target": sname(loc, 0, 0), "prob": 1.0}],
            })
            queue.append((loc, 0, 0))
        if spare == 0 and loc in shop_currency:
            cost = [1.0] + [0.0] * c
            cost[1 + shop_currency[loc]] = 1.0
            actions.append({
                "name": f"buy-spare-cur{shop_currency[loc]}",
                "source": name,
                "cost": cost,
                "outcomes": [{"target": sname(loc, 1, flat), "prob": 1.0}],
            })
            queue.append((loc, 1, flat))

    goals = sorted(s for s in states if s.startswith(goal_loc + "|"))
    bound = float(max(1, math.ceil(2.0 * d / c)))
    return {
        "states": states,
        "initial": start,
        "goals": goals,
        "n": c,
        "bounds": [bound] * c,
        "actions": actions,
    }


# ---------------------------------------------------------------------------
# seeded random instances
# ---------------------------------------------------------------------------

def random_cssp_document(states: int, actions_per_state: int, secondary: int,
                         seed: int) -> dict:
    """Seeded random instance, connected to the goal and feasible by construction.

    Every non-goal state carries a deterministic forward action to the next
    state, so the chain policy is proper; bounds are set to 1.2x the secondary
    costs of a randomly chosen proper witness policy.  The witness is priced
    by the block solve with its whole envelope as one block, the one dense
    solve the documents' bytes were made with.
    """
    rng = np.random.default_rng(seed)
    names = [f"x{i}" for i in range(states)]
    goal = states - 1
    docs = []
    for s in range(goal):
        cost = [float(rng.integers(1, 11))] + \
               [float(rng.integers(0, 11)) for _ in range(secondary)]
        docs.append({
            "name": "a0",
            "source": names[s],
            "cost": cost,
            "outcomes": [{"target": names[s + 1], "prob": 1.0}],
        })
        for a in range(1, actions_per_state):
            k = int(rng.integers(1, 4))
            succs = rng.choice(states, size=k, replace=False)
            raw = rng.random(k) + 0.05
            probs = raw / raw.sum()
            cost = [float(rng.integers(1, 11))] + \
                   [float(rng.integers(0, 11)) for _ in range(secondary)]
            docs.append({
                "name": f"a{a}",
                "source": names[s],
                "cost": cost,
                "outcomes": [
                    {"target": names[int(t)], "prob": float(p)}
                    for t, p in zip(succs, probs)
                ],
            })
    doc = {
        "states": names,
        "initial": names[0],
        "goals": [names[goal]],
        "n": secondary,
        "bounds": [0.0] * secondary,
        "actions": docs,
    }
    cost = _random_proper_price(load_model(doc), rng)
    doc["bounds"] = [float(1.2 * c) for c in cost[1:]]
    return doc


def _whole_price(model: CsspModel, policy: DeterministicPolicy) -> np.ndarray:
    """The policy's expected cost vector from one block solve over its envelope.

    Given every row as one block, the block solve assembles the whole
    ``I - P`` and makes one ``solve_linear_system`` call over it, as the
    documents' bounds were made; ``evaluate_policy``'s split into strongly
    connected blocks can move their last bits.  A one-state envelope takes
    the single-row branch, which gives the 1x1 solve's bits on every pinned
    document.  Raises ImproperPolicy or OpenPolicy as evaluation does.
    """
    system = policy_system(model, *policy_entries(model, policy.to_stochastic()))
    system = system._replace(blocks=(tuple(range(len(system.states))),))
    return policy_values(model, system)[system.initial]


def _random_proper_price(model: CsspModel, rng) -> np.ndarray:
    """The price of the first of 20 random policies that is proper, else the chain's."""
    states = [s for s in range(model.num_states) if not model.is_goal(s)]
    counts = np.diff(model.layout.offsets).tolist()
    for _ in range(20):
        mapping = {s: int(rng.integers(0, counts[s])) for s in states}
        try:
            return _whole_price(model, DeterministicPolicy(mapping))
        except (ImproperPolicy, OpenPolicy):
            continue
    return _whole_price(model, DeterministicPolicy(dict.fromkeys(states, 0)))
