"""Explicit-state constrained stochastic shortest path models and policies.

States and actions are referenced by dense integer ids assigned at load time;
names exist only at the I/O boundary.  An action id is the action's position
in its source state's action list.  Models are immutable after construction
and safe to share across threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Mapping, Optional, Union

import numpy as np

from .errors import (
    BadDistribution,
    DimensionMismatch,
    ImproperPolicy,
    MalformedModel,
    MalformedPolicy,
    NonpositivePrimaryCost,
    OpenPolicy,
    SingularMatrix,
)
from .linalg import solve_linear_system

PROB_TOL = 1e-9          # model hygiene: distributions must sum to 1 this tightly
FEASIBILITY_TOL = 1e-6   # solver noise allowance when checking secondary bounds
GIVE_UP_NAME = "__give_up__"

StateId = int
ActionId = int


@dataclass(frozen=True)
class ActionDef:
    """One applicable action: a cost vector and a distribution over successors."""

    name: str
    cost: np.ndarray        # shape (n + 1,), cost[0] > 0
    successors: np.ndarray  # int state ids
    probs: np.ndarray       # matching probabilities, sum 1


@dataclass(frozen=True)
class PairLayout:
    """Every (state, action) pair of a model in flat arrays, state by state.

    Pair ``offsets[s] + a`` is action ``a`` of state ``s``, so one state's
    pairs are a contiguous slice.  Outcome lists are zero-padded to the
    widest one: a padded entry has successor 0 and probability 0.
    """

    offsets: np.ndarray     # (num_states + 1,) int
    cost: np.ndarray        # (A, n + 1)
    succ: np.ndarray        # (A, d) successor ids
    probs: np.ndarray       # (A, 1, d) outcome probabilities
    state: np.ndarray       # (A,) source state of each pair
    offset_list: tuple      # offsets as Python ints, for the traversal loops
    successors: tuple       # per pair: successor ids in outcome order
    goal: tuple             # per state: True at a goal

    def q(self, values: np.ndarray, lo: int = 0, hi: Optional[int] = None) -> np.ndarray:
        """Q vectors ``cost + probs @ values[succ]`` of the pairs ``lo:hi``."""
        return self.cost[lo:hi] + np.matmul(
            self.probs[lo:hi], values[self.succ[lo:hi]])[:, 0, :]


def _pair_layout(model: "CsspModel") -> PairLayout:
    acts = [act for state_acts in model.actions for act in state_acts]
    counts = [len(state_acts) for state_acts in model.actions]
    width = max((len(act.successors) for act in acts), default=1)
    cost = np.zeros((len(acts), model.n + 1))
    succ = np.zeros((len(acts), width), dtype=int)
    probs = np.zeros((len(acts), 1, width))
    for i, act in enumerate(acts):
        k = len(act.successors)
        cost[i] = act.cost
        succ[i, :k] = act.successors
        probs[i, 0, :k] = act.probs
    offsets = np.concatenate(([0], np.cumsum(counts, dtype=int)))
    state = np.repeat(np.arange(model.num_states), counts)
    for arr in (offsets, cost, succ, probs, state):
        arr.setflags(write=False)
    return PairLayout(offsets, cost, succ, probs, state, tuple(offsets.tolist()),
                      tuple(tuple(act.successors.tolist()) for act in acts),
                      tuple(s in model.goals for s in range(model.num_states)))


@dataclass(frozen=True)
class CsspModel:
    state_names: tuple
    initial: StateId
    goals: frozenset
    bounds: np.ndarray                 # shape (n,)
    actions: tuple                     # per state: tuple of ActionDef

    @property
    def n(self) -> int:
        return int(self.bounds.shape[0])

    @property
    def num_states(self) -> int:
        return len(self.state_names)

    def is_goal(self, s: StateId) -> bool:
        return s in self.goals

    def predecessors(self):
        """Per state: the ascending ids of the pairs that can reach it. Cached.

        Ids are those of ``pairs()``, one int array per state.
        """
        cached = getattr(self, "_preds", None)
        if cached is None:
            preds = [[] for _ in range(self.num_states)]
            for i, succ in enumerate(self.pairs().successors):
                for t in set(succ):
                    preds[t].append(i)
            cached = tuple(np.array(p, dtype=np.intp) for p in preds)
            object.__setattr__(self, "_preds", cached)
        return cached

    def pairs(self) -> PairLayout:
        """The flat pair layout the search and the heuristics run on. Cached."""
        cached = getattr(self, "_pairs", None)
        if cached is None:
            cached = _pair_layout(self)
            object.__setattr__(self, "_pairs", cached)
        return cached

    def state_id(self, name: str) -> StateId:
        try:
            return self.state_names.index(name)
        except ValueError:
            raise MalformedModel(f"unknown state name {name!r}") from None

    def action_id(self, s: StateId, name: str) -> ActionId:
        for a, act in enumerate(self.actions[s]):
            if act.name == name:
                return a
        raise MalformedModel(
            f"state {self.state_names[s]!r} has no action named {name!r}")


# ---------------------------------------------------------------------------
# loading and validation
# ---------------------------------------------------------------------------

def _array(value, what: str) -> list:
    """A JSON array field; a string or any other scalar is malformed."""
    if not isinstance(value, (list, tuple)):
        raise MalformedModel(f"{what} must be an array")
    return list(value)


def _state(index: dict, name, what: str) -> StateId:
    try:
        return index[name]
    except (KeyError, TypeError):   # unknown, or not even hashable
        raise MalformedModel(f"{what} {name!r} unknown") from None


def load_model(document: Union[str, Mapping]) -> CsspModel:
    """Build a validated model from the JSON interchange document.

    The document carries ``states``, ``initial``, ``goals``, ``n``, ``bounds``
    and ``actions`` (records of ``name``, ``source``, ``cost``, ``outcomes``).
    Actions whose source is a goal state are stripped.
    """
    if isinstance(document, str):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise MalformedModel(f"not valid JSON: {exc}") from None
    if not isinstance(document, Mapping):
        raise MalformedModel("document must be a JSON object")

    for key in ("states", "initial", "goals", "n", "bounds", "actions"):
        if key not in document:
            raise MalformedModel(f"missing field {key!r}")

    names = _array(document["states"], "states")
    if not names or any(not isinstance(x, str) for x in names):
        raise MalformedModel("states must be a non-empty array of strings")
    if len(set(names)) != len(names):
        raise MalformedModel("state names must be unique")
    index = {name: i for i, name in enumerate(names)}

    initial = _state(index, document["initial"], "initial state")
    goals = frozenset(_state(index, g, "goal state")
                      for g in _array(document["goals"], "goals"))

    n = document["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise MalformedModel("n must be a nonnegative integer")
    try:
        bounds = np.asarray(document["bounds"], dtype=float)
    except (TypeError, ValueError):
        raise MalformedModel("bounds must be an array of numbers") from None
    if bounds.shape != (n,):
        raise MalformedModel(f"bounds must have {n} entries")
    if bool in map(type, document["bounds"]):   # numpy reads true as 1
        raise MalformedModel("bounds must be an array of numbers")
    if np.any(bounds < 0) or not np.all(np.isfinite(bounds)):
        raise MalformedModel("bounds must be finite and nonnegative")

    per_state = [[] for _ in names]
    for rec in _array(document["actions"], "actions"):
        if not isinstance(rec, Mapping):
            raise MalformedModel("action records must be JSON objects")
        for key in ("name", "source", "cost", "outcomes"):
            if key not in rec:
                raise MalformedModel(f"action record missing {key!r}")
        if not isinstance(rec["name"], str):
            raise MalformedModel(f"action name {rec['name']!r} must be a string")
        src = _state(index, rec["source"], "action source")
        if src in goals:
            continue  # goal states keep no actions
        try:
            cost = np.asarray(rec["cost"], dtype=float)
        except (TypeError, ValueError):
            raise MalformedModel(
                f"action {rec['name']!r} cost must be an array of numbers") from None
        if cost.shape != (n + 1,):
            raise MalformedModel(
                f"action {rec['name']!r} cost must have {n + 1} entries")
        if bool in map(type, rec["cost"]):
            raise MalformedModel(
                f"action {rec['name']!r} cost must be an array of numbers")
        if not np.all(np.isfinite(cost)):
            raise MalformedModel(f"action {rec['name']!r} cost must be finite")
        if cost[0] <= 0:
            raise NonpositivePrimaryCost(
                f"action {rec['name']!r} has primary cost {cost[0]}")
        if np.any(cost[1:] < 0):
            raise MalformedModel(f"action {rec['name']!r} has negative secondary cost")
        succs, probs = [], []
        if not isinstance(rec["outcomes"], (list, tuple)):
            raise MalformedModel(f"action {rec['name']!r} outcomes must be an array")
        for out in rec["outcomes"]:
            try:
                target, prob = out["target"], out["prob"]
                if isinstance(prob, bool):   # float() reads true as 1
                    raise TypeError
                prob = float(prob)
            except (KeyError, TypeError, ValueError):
                raise MalformedModel(
                    f"action {rec['name']!r} outcome {out!r} is not an object "
                    "with a target and a numeric prob") from None
            succs.append(_state(index, target, "outcome target"))
            probs.append(prob)
        probs = np.asarray(probs, dtype=float)
        # NaN fails ">= 0" and an infinite mass fails the sum test below
        if probs.size == 0 or not np.all(probs >= 0):
            raise BadDistribution(
                f"action {rec['name']!r} has negative or NaN outcome mass")
        if abs(probs.sum() - 1.0) > PROB_TOL:
            raise BadDistribution(
                f"action {rec['name']!r} outcome mass sums to {probs.sum()}")
        cost.setflags(write=False)
        probs.setflags(write=False)
        per_state[src].append(
            ActionDef(rec["name"], cost, np.asarray(succs, dtype=int), probs))

    for s, acts in enumerate(per_state):
        seen = set()
        for act in acts:
            if act.name in seen:
                raise MalformedModel(
                    f"state {names[s]!r} has duplicate action name {act.name!r}")
            seen.add(act.name)

    bounds.setflags(write=False)
    return CsspModel(tuple(names), initial, goals, bounds,
                     tuple(tuple(a) for a in per_state))


def load_model_file(path) -> CsspModel:
    with open(path, "r", encoding="utf-8") as fh:
        return load_model(fh.read())


def model_to_document(model: CsspModel) -> dict:
    """Inverse of load_model, for the generator CLI."""
    actions = []
    for s, acts in enumerate(model.actions):
        for act in acts:
            actions.append({
                "name": act.name,
                "source": model.state_names[s],
                "cost": [float(c) for c in act.cost],
                "outcomes": [
                    {"target": model.state_names[int(t)], "prob": float(p)}
                    for t, p in zip(act.successors, act.probs)
                ],
            })
    return {
        "states": list(model.state_names),
        "initial": model.state_names[model.initial],
        "goals": sorted(model.state_names[g] for g in model.goals),
        "n": model.n,
        "bounds": [float(b) for b in model.bounds],
        "actions": actions,
    }


# ---------------------------------------------------------------------------
# policies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DeterministicPolicy:
    mapping: dict  # state id -> action id

    def to_stochastic(self) -> "StochasticPolicy":
        return StochasticPolicy(
            {s: ((a, 1.0),) for s, a in self.mapping.items()})


@dataclass(frozen=True)
class StochasticPolicy:
    distribution: dict  # state id -> tuple of (action id, probability)

    def action_probs(self, s: StateId):
        return self.distribution.get(s, ())


def validate_policy(model: CsspModel, policy: StochasticPolicy) -> None:
    for s, dist in policy.distribution.items():
        if not 0 <= s < model.num_states:
            raise MalformedPolicy(f"unknown state id {s}")
        total = 0.0
        for a, p in dist:
            if not 0 <= a < len(model.actions[s]):
                raise MalformedPolicy(
                    f"action id {a} not applicable in state {model.state_names[s]!r}")
            if p < 0:
                raise MalformedPolicy("negative action probability")
            total += p
        if abs(total - 1.0) > PROB_TOL:
            raise MalformedPolicy(
                f"probabilities at {model.state_names[s]!r} sum to {total}")


def policy_to_names(model: CsspModel, policy: StochasticPolicy) -> dict:
    return {
        model.state_names[s]: [[model.actions[s][a].name, float(p)] for a, p in dist]
        for s, dist in sorted(policy.distribution.items())
    }


def policy_from_names(model: CsspModel, doc: Mapping) -> StochasticPolicy:
    dist = {}
    for name, entries in doc.items():
        s = model.state_id(name)
        dist[s] = tuple((model.action_id(s, an), float(p)) for an, p in entries)
    policy = StochasticPolicy(dist)
    validate_policy(model, policy)
    return policy


# ---------------------------------------------------------------------------
# envelopes and evaluation
# ---------------------------------------------------------------------------

def envelope(model: CsspModel, policy: StochasticPolicy,
             start: Optional[StateId] = None) -> frozenset:
    """States reachable from ``start`` under positive-probability choices.

    Raises OpenPolicy when a reachable non-goal state has no entry.
    """
    if start is None:
        start = model.initial
    seen = {start}
    stack = [start]
    open_states = []
    while stack:
        s = stack.pop()
        if model.is_goal(s):
            continue
        dist = policy.action_probs(s)
        if not dist:
            open_states.append(s)
            continue
        for a, p in dist:
            if p <= 0:
                continue
            for t in model.actions[s][a].successors:
                t = int(t)
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
    if open_states:
        raise OpenPolicy(open_states)
    return frozenset(seen)


def _policy_matrices(model: CsspModel, policy: StochasticPolicy, states):
    """Transition matrix, per-component costs and goal mass under the policy."""
    idx = {s: i for i, s in enumerate(states)}
    k = len(states)
    p = np.zeros((k, k))
    c = np.zeros((k, model.n + 1))
    goal_mass = np.zeros(k)
    for s in states:
        i = idx[s]
        for a, w in policy.action_probs(s):
            if w <= 0:
                continue
            act = model.actions[s][a]
            c[i] += w * act.cost
            for t, q in zip(act.successors, act.probs):
                t = int(t)
                if model.is_goal(t):
                    goal_mass[i] += w * q
                else:
                    p[i, idx[t]] += w * q
    return idx, p, c, goal_mass


def evaluate_policy(model: CsspModel, policy: StochasticPolicy) -> np.ndarray:
    """Expected cost vector of a closed proper policy from the initial state.

    One solve over the envelope gives goal-reachability and values together.
    A singular system, or a reach probability off 1 by more than 1e-9 (a
    trap LAPACK does not flag as singular shows up here), raises
    ImproperPolicy.
    """
    validate_policy(model, policy)
    env = envelope(model, policy)
    transient = sorted(s for s in env if not model.is_goal(s))
    if not transient:
        return np.zeros(model.n + 1)
    idx, p, c, goal_mass = _policy_matrices(model, policy, transient)
    try:
        sol = solve_linear_system(np.eye(len(transient)) - p,
                                  np.column_stack((goal_mass, c)))
    except SingularMatrix:
        raise ImproperPolicy("policy traps probability mass away from goals") from None
    off = np.abs(sol[:, 0] - 1.0)
    if not np.all(off <= 1e-9):
        worst = int(np.argmax(off))
        raise ImproperPolicy(
            f"goal reached with probability {sol[worst, 0]:.6f} != 1 "
            f"from state {model.state_names[transient[worst]]!r}")
    return sol[idx[model.initial], 1:].copy()


def feasibility_check(model: CsspModel, cost) -> bool:
    """True iff every secondary component respects its bound up to 1e-6."""
    cost = np.asarray(cost, dtype=float)
    if cost.shape != (model.n + 1,):
        raise DimensionMismatch(
            f"cost vector has {cost.shape[0]} entries, expected {model.n + 1}")
    return bool(np.all(cost[1:] <= model.bounds + FEASIBILITY_TOL))


# ---------------------------------------------------------------------------
# dead-end removal
# ---------------------------------------------------------------------------

def finite_penalty_transform(model: CsspModel, penalty) -> CsspModel:
    """Add a deterministic give-up action (cost = penalty) to every non-goal state.

    The result satisfies the reachability assumption by construction.  States
    that already carry an identical give-up action are left alone, which makes
    the transform idempotent.
    """
    penalty = np.asarray(penalty, dtype=float)
    if penalty.shape != (model.n + 1,):
        raise DimensionMismatch(
            f"penalty has {penalty.shape[0]} entries, expected {model.n + 1}")
    if not np.all(np.isfinite(penalty) & (penalty > 0)):
        raise ValueError("penalty entries must be finite and strictly positive")
    if not model.goals:
        raise MalformedModel("cannot add give-up actions: model has no goal")
    target = min(model.goals)
    penalty = penalty.copy()
    penalty.setflags(write=False)
    new_actions = []
    for s, acts in enumerate(model.actions):
        if model.is_goal(s):
            new_actions.append(acts)
            continue
        same = next(
            (a for a in acts
             if a.name.startswith(GIVE_UP_NAME) and len(a.successors) == 1
             and int(a.successors[0]) == target and np.array_equal(a.cost, penalty)),
            None)
        if same is not None:
            new_actions.append(acts)
            continue
        taken = {a.name for a in acts}
        name = GIVE_UP_NAME
        k = 2
        while name in taken:
            name = f"{GIVE_UP_NAME}{k}"
            k += 1
        give_up = ActionDef(name, penalty,
                            np.asarray([target], dtype=int), np.asarray([1.0]))
        new_actions.append(acts + (give_up,))
    return CsspModel(model.state_names, model.initial, model.goals,
                     model.bounds, tuple(new_actions))


def reachable_states(model: CsspModel, start: Optional[StateId] = None) -> frozenset:
    """States reachable from ``start`` under any sequence of actions."""
    if start is None:
        start = model.initial
    seen = {start}
    stack = [start]
    while stack:
        s = stack.pop()
        if model.is_goal(s):
            continue
        for act in model.actions[s]:
            for t in act.successors:
                t = int(t)
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
    return frozenset(seen)


def policy_is_proper(model: CsspModel, policy: StochasticPolicy) -> bool:
    try:
        evaluate_policy(model, policy)
        return True
    except (ImproperPolicy, OpenPolicy):
        return False
