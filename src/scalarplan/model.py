"""Explicit-state constrained stochastic shortest path models and policies.

States and actions are referenced by dense integer ids assigned at load time;
names exist only at the I/O boundary.  An action id is the action's position
in its source state's action list.  Models are immutable after construction
and safe to share across threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Optional, Union

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
    widest one: a padded entry has successor 0 and probability 0 in
    ``succ``, and the sentinel state ``num_states`` in ``target``.  The
    pairs that can reach state ``t`` are
    ``pred_ids[pred_ptr[t]:pred_ptr[t + 1]]``, ascending.
    """

    offsets: np.ndarray     # (num_states + 1,) int
    cost: np.ndarray        # (A, n + 1)
    succ: np.ndarray        # (A, d) successor ids
    target: np.ndarray      # (A, d) successor ids, padding at the sentinel
    probs: np.ndarray       # (A, 1, d) outcome probabilities
    state: np.ndarray       # (A,) source state of each pair
    pred_ptr: np.ndarray    # (num_states + 1,) int
    pred_ids: np.ndarray    # pair ids, grouped by the state they reach
    goal_mask: np.ndarray   # (num_states,) bool
    offset_list: tuple      # offsets as Python ints, for the traversal loops
    successors: tuple       # per pair: successor ids in outcome order

    def q(self, values: np.ndarray, lo: int = 0, hi: Optional[int] = None) -> np.ndarray:
        """Q vectors ``cost + probs @ values[succ]`` of the pairs ``lo:hi``."""
        return self.cost[lo:hi] + np.matmul(
            self.probs[lo:hi], values[self.succ[lo:hi]])[:, 0, :]


def _pair_layout(model: "CsspModel") -> PairLayout:
    acts = [act for state_acts in model.actions for act in state_acts]
    counts = [len(state_acts) for state_acts in model.actions]
    num, pairs = model.num_states, len(acts)
    lengths = np.array([len(act.successors) for act in acts], dtype=int)
    d = int(lengths.max(initial=1))
    # the outcome slots of every pair, row by row: the order of the concatenations
    real = np.arange(d) < lengths[:, None]
    cost = np.array([act.cost for act in acts], dtype=float).reshape(pairs, model.n + 1)
    succ = np.zeros((pairs, d), dtype=int)
    target = np.full((pairs, d), num)
    probs = np.zeros((pairs, 1, d))
    probs[:, 0][real] = np.concatenate([act.probs for act in acts] or [np.zeros(0)])
    succ[real] = target[real] = np.concatenate(
        [act.successors for act in acts] or [np.zeros(0, int)])
    offsets = np.concatenate(([0], np.cumsum(counts, dtype=int)))
    state = np.repeat(np.arange(num), counts)
    # every (successor, pair) edge once, successor-major, then ascending pair
    # id: a stable sort keeps a pair's repeated successor next to itself
    order = np.argsort(target, axis=None, kind="stable")
    to = target.ravel()[order]
    keep = np.ones(len(order), dtype=bool)
    keep[1:] = (order[1:] // d != order[:-1] // d) | (to[1:] != to[:-1])
    keep &= to < num
    pred_ptr = np.searchsorted(to[keep], np.arange(num + 1))
    pred_ids = order[keep] // d
    goal_mask = np.zeros(num, dtype=bool)
    goal_mask[list(model.goals)] = True
    for arr in (offsets, cost, succ, target, probs, state, pred_ptr, pred_ids, goal_mask):
        arr.setflags(write=False)
    return PairLayout(offsets, cost, succ, target, probs, state, pred_ptr, pred_ids,
                      goal_mask, tuple(offsets.tolist()),
                      tuple(tuple(act.successors.tolist()) for act in acts))


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

        Ids are those of ``pairs()``, one int array per state: views into
        the layout's ``pred_ids``.
        """
        cached = getattr(self, "_preds", None)
        if cached is None:
            pairs = self.pairs()
            cached = tuple(np.split(pairs.pred_ids, pairs.pred_ptr[1:-1]))
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

def _reach(model: CsspModel, ids: np.ndarray, start: StateId,
           listed: Optional[np.ndarray] = None) -> np.ndarray:
    """Bool per state: reachable from ``start`` by following the pairs ``ids``.

    A frontier pass over a successor table with a row per state that has
    pairs in ``ids``, holding their successors at their action ids and the
    sentinel elsewhere; every other state's row holds the sentinel only.
    Each round keeps the states not reached before, once each.  With
    ``listed`` (the states that have an entry), reaching a non-goal state
    outside it raises OpenPolicy.
    """
    pairs = model.pairs()
    num = model.num_states
    src = pairs.state.take(ids)
    action = ids - pairs.offsets.take(src)
    row = np.full(num, len(ids))
    row[src] = np.arange(len(ids))   # one of the state's entries names its row
    table = np.full((len(ids) + 1, action.max(initial=0) + 1, pairs.succ.shape[1]), num)
    table[row.take(src), action] = pairs.target.take(ids, axis=0)
    table = table.reshape(len(ids) + 1, -1)
    claim = np.full(num + 1, -1)   # -1 until reached
    claim[start] = claim[num] = 0
    front = np.array([start])
    while len(front):
        front = table.take(row.take(front), axis=0).ravel()
        front = front.compress(claim.take(front) < 0)
        # each new state keeps the one copy whose position it holds
        at = np.arange(len(front))
        claim[front] = at
        front = front.compress(claim.take(front) == at)
    reached = claim[:num] >= 0
    if listed is not None:
        open_states = reached & ~pairs.goal_mask
        open_states[listed] = False
        if open_states.any():
            raise OpenPolicy(open_states.nonzero()[0].tolist())
    return reached


def policy_entries(model: CsspModel, policy: StochasticPolicy) -> tuple:
    """The policy's (pair id, probability) entries, in its listing order.

    Returns the pair ids and the probabilities as two arrays.  Listing
    order matters: a state's transition and cost rows sum its actions in
    this order.  Raises MalformedPolicy on an unknown state or action id,
    which would otherwise name another state's pair.
    """
    offsets = model.pairs().offset_list
    ids, probs = [], []
    for s, dist in policy.distribution.items():
        if not 0 <= s < model.num_states:
            raise MalformedPolicy(f"unknown state id {s}")
        lo = offsets[s]
        for a, p in dist:
            if not 0 <= a < offsets[s + 1] - lo:
                raise MalformedPolicy(
                    f"action id {a} not applicable in state {model.state_names[s]!r}")
            ids.append(lo + a)
            probs.append(p)
    return np.array(ids, dtype=np.intp), np.array(probs, dtype=float)


class PolicySystem(NamedTuple):
    """A policy's transient system over its envelope.

    ``states`` are the envelope's non-goal states, ascending; row ``r`` of
    every matrix is state ``states[r]``.  ``ids``, ``probs`` and ``rows``
    are the policy's positive entries at those states, in listing order,
    with each entry's row.
    """

    states: np.ndarray
    initial: int            # the initial state's row
    matrix: np.ndarray      # I - P over ``states``
    cost: np.ndarray        # (k, n + 1): expected one-step cost vectors
    goal_mass: np.ndarray   # (k,): one-step probability of entering a goal
    ids: np.ndarray
    probs: np.ndarray
    rows: np.ndarray


def policy_system(model: CsspModel, ids: np.ndarray, probs: np.ndarray) -> PolicySystem:
    """Transition matrix, cost vectors and goal mass of a policy given by entries.

    The envelope is every state reachable from the initial state under
    the entries with positive probability; a reachable non-goal state with
    no entry raises OpenPolicy.  The matrices are ``bincount``s of the
    entries' outcome probabilities and costs in listing order, so every
    sum runs in the order a per-state loop over the listed actions would
    take.
    """
    pairs = model.pairs()
    src = pairs.state.take(ids)
    use = ~(probs <= 0)   # a NaN probability is followed, as "p <= 0" skips it
    reached = _reach(model, ids.compress(use), model.initial, src)
    states = (reached > pairs.goal_mask).nonzero()[0]
    k, m = len(states), model.n + 1
    # columns: the states' rows, the goals, then the sentinel (and so the
    # padding and every other state)
    col = np.full(model.num_states + 1, k + 1)
    col[:-1] -= pairs.goal_mask
    col[states] = np.arange(k)
    use &= reached.take(src)
    if np.count_nonzero(use) < len(use):
        ids, probs, src = ids.compress(use), probs.compress(use), src.compress(use)
    rows = col.take(src)
    at = col.take(pairs.target.take(ids, axis=0))
    at += (rows * (k + 2))[:, None]
    flat = np.bincount(at.ravel(), minlength=k * (k + 2),
                       weights=(pairs.probs.take(ids, axis=0)[:, 0] * probs[:, None]).ravel())
    flat = flat.reshape(k, k + 2)
    at = (rows * m)[:, None] + np.arange(m)
    cost = np.bincount(at.ravel(), minlength=k * m,
                       weights=(pairs.cost.take(ids, axis=0) * probs[:, None]).ravel())
    matrix = np.subtract(0.0, flat[:, :k])   # I - P, entry by entry as np.eye(k) - P
    matrix.ravel()[::k + 1] += 1.0
    return PolicySystem(states, col[model.initial], matrix, cost.reshape(k, m), flat[:, k],
                        ids, probs, rows)


def envelope(model: CsspModel, policy: StochasticPolicy,
             start: Optional[StateId] = None) -> frozenset:
    """States reachable from ``start`` under positive-probability choices.

    Raises OpenPolicy when a reachable non-goal state has no entry.
    """
    if start is None:
        start = model.initial
    ids, probs = policy_entries(model, policy)
    # a NaN probability is followed, as a loop skipping "p <= 0" would
    seen = _reach(model, ids[~(probs <= 0)], start, model.pairs().state[ids])
    return frozenset(np.flatnonzero(seen).tolist())


def evaluate_policy(model: CsspModel, policy: StochasticPolicy) -> np.ndarray:
    """Expected cost vector of a closed proper policy from the initial state.

    One solve over the envelope gives goal-reachability and values together.
    A singular system, or a reach probability off 1 by more than 1e-9 (a
    trap LAPACK does not flag as singular shows up here), raises
    ImproperPolicy.
    """
    validate_policy(model, policy)
    system = policy_system(model, *policy_entries(model, policy))
    if not len(system.states):
        return np.zeros(model.n + 1)
    try:
        sol = solve_linear_system(system.matrix,
                                  np.column_stack((system.goal_mass, system.cost)))
    except SingularMatrix:
        raise ImproperPolicy("policy traps probability mass away from goals") from None
    off = np.abs(sol[:, 0] - 1.0)
    if not np.all(off <= 1e-9):
        worst = int(np.argmax(off))
        raise ImproperPolicy(
            f"goal reached with probability {sol[worst, 0]:.6f} != 1 "
            f"from state {model.state_names[system.states[worst]]!r}")
    return sol[system.initial, 1:].copy()


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
    seen = _reach(model, np.arange(len(model.pairs().state)), start)
    return frozenset(np.flatnonzero(seen).tolist())


def policy_is_proper(model: CsspModel, policy: StochasticPolicy) -> bool:
    try:
        evaluate_policy(model, policy)
        return True
    except (ImproperPolicy, OpenPolicy):
        return False
