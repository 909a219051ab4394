"""Explicit-state constrained stochastic shortest path models and policies.

States and actions are referenced by dense integer ids assigned at load time;
names exist only at the I/O boundary.  An action id is the action's position
in its source state's action list, and action ``a`` of state ``s`` is pair
``offsets[s] + a`` of the model's pair layout, which ``load_model`` builds
and which is the model's only copy of its actions.  Models are immutable
after construction and safe to share across threads.
"""

from __future__ import annotations

import json
import math
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
_TRAPPED = "policy traps probability mass away from goals"

StateId = int
ActionId = int


def _ranges(ptr: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The positions ``ptr[r]:ptr[r + 1]`` of every ``r`` in ``rows``, concatenated."""
    lo = ptr.take(rows)
    count = ptr.take(rows + 1) - lo
    return np.arange(count.sum()) + np.repeat(lo - np.cumsum(count) + count, count)


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
            self.probs[lo:hi], values.take(self.succ[lo:hi], axis=0))[:, 0, :]

    def pair_q(self, values: np.ndarray, i: int) -> np.ndarray:
        """Pair ``i``'s Q vector, the same bits as row ``i`` of ``q(values)``."""
        return self.cost[i] + self.probs[i, 0] @ values.take(self.succ[i], axis=0)


@dataclass(frozen=True)
class CsspModel:
    state_names: tuple
    initial: StateId
    goals: frozenset
    bounds: np.ndarray                 # shape (n,)
    action_names: tuple                # per pair id
    layout: PairLayout

    @property
    def n(self) -> int:
        return int(self.bounds.shape[0])

    @property
    def num_states(self) -> int:
        return len(self.state_names)

    def is_goal(self, s: StateId) -> bool:
        return s in self.goals

    def pairs(self) -> PairLayout:
        """The flat pair layout that every layer runs on."""
        return self.layout

    def state_id(self, name: str) -> StateId:
        try:
            return self.state_names.index(name)
        except ValueError:
            raise MalformedModel(f"unknown state name {name!r}") from None

    def action_id(self, s: StateId, name: str) -> ActionId:
        offsets = self.layout.offset_list
        try:
            return self.action_names[offsets[s]:offsets[s + 1]].index(name)
        except ValueError:
            raise MalformedModel(
                f"state {self.state_names[s]!r} has no action named {name!r}") from None


def _build_model(state_names: tuple, initial: StateId, goals: frozenset,
                 bounds: np.ndarray, source, action_names: tuple, cost,
                 lengths, succ, probs) -> CsspModel:
    """The model with the given pairs, grouped state by state into its layout.

    ``source``, ``action_names``, ``cost`` (rows of n + 1) and ``lengths``
    (outcome counts) hold one entry per pair; ``succ`` and ``probs`` hold
    the pairs' outcomes, concatenated.  A state's pairs keep their order.
    """
    num = len(state_names)
    source = np.asarray(source, dtype=int)
    lengths = np.asarray(lengths, dtype=int)
    count, d = len(source), int(lengths.max(initial=1))
    # the outcome slots of every pair, row by row: the order of the concatenations
    real = np.arange(d) < lengths[:, None]
    cost = np.asarray(cost, dtype=float).reshape(count, len(bounds) + 1)
    target = np.full((count, d), num)
    target[real] = succ
    weights = np.zeros((count, 1, d))
    weights[:, 0][real] = probs
    order = np.argsort(source, kind="stable")
    state, cost, lengths, target, weights = (
        a[order] for a in (source, cost, lengths, target, weights))
    padded = np.where(target < num, target, 0)
    offsets = np.concatenate(([0], np.cumsum(np.bincount(state, minlength=num))))
    # every (successor, pair) edge once, successor-major, then ascending pair
    # id: a stable sort keeps a pair's repeated successor next to itself
    edges = np.argsort(target, axis=None, kind="stable")
    to = target.ravel()[edges]
    keep = np.ones(len(edges), dtype=bool)
    keep[1:] = (edges[1:] // d != edges[:-1] // d) | (to[1:] != to[:-1])
    keep &= to < num
    pred_ptr = np.searchsorted(to[keep], np.arange(num + 1))
    pred_ids = edges[keep] // d
    goal_mask = np.zeros(num, dtype=bool)
    goal_mask[list(goals)] = True
    for arr in (offsets, cost, padded, target, weights, state, pred_ptr, pred_ids,
                goal_mask, bounds):
        arr.setflags(write=False)
    successors = tuple(tuple(row[:k]) for row, k in zip(target.tolist(), lengths.tolist()))
    layout = PairLayout(offsets, cost, padded, target, weights, state, pred_ptr, pred_ids,
                        goal_mask, tuple(offsets.tolist()), successors)
    return CsspModel(state_names, initial, goals, bounds,
                     tuple(action_names[i] for i in order.tolist()), layout)


# ---------------------------------------------------------------------------
# loading and validation
# ---------------------------------------------------------------------------

# types that float() and numpy read as numbers although JSON does not
_NOT_NUMBERS = frozenset({bool, str, bytes, bytearray})


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
    Actions whose source is a goal state are stripped.  Records are checked
    in document order, so the first faulty one is the one reported.
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
    if not _NOT_NUMBERS.isdisjoint(map(type, document["bounds"])):
        raise MalformedModel("bounds must be an array of numbers")
    if np.any(bounds < 0) or not np.all(np.isfinite(bounds)):
        raise MalformedModel("bounds must be finite and nonnegative")

    # one entry per pair, and the pairs' outcomes concatenated
    source, action_names, costs, lengths, succ, probs = [], [], [], [], [], []
    for rec in _array(document["actions"], "actions"):
        if not isinstance(rec, Mapping):
            raise MalformedModel("action records must be JSON objects")
        for key in ("name", "source", "cost", "outcomes"):
            if key not in rec:
                raise MalformedModel(f"action record missing {key!r}")
        name = rec["name"]
        if not isinstance(name, str):
            raise MalformedModel(f"action name {name!r} must be a string")
        src = _state(index, rec["source"], "action source")
        if src in goals:
            continue  # goal states keep no actions
        try:
            if isinstance(rec["cost"], (str, Mapping)) \
                    or not _NOT_NUMBERS.isdisjoint(map(type, rec["cost"])):
                raise TypeError
            cost = [float(c) for c in rec["cost"]]
        except (TypeError, ValueError):
            raise MalformedModel(f"action {name!r} cost must be an array of numbers") from None
        if len(cost) != n + 1:
            raise MalformedModel(f"action {name!r} cost must have {n + 1} entries")
        if not all(map(math.isfinite, cost)):
            raise MalformedModel(f"action {name!r} cost must be finite")
        if cost[0] <= 0:
            raise NonpositivePrimaryCost(f"action {name!r} has primary cost {cost[0]}")
        if any(c < 0 for c in cost[1:]):
            raise MalformedModel(f"action {name!r} has negative secondary cost")
        if not isinstance(rec["outcomes"], (list, tuple)):
            raise MalformedModel(f"action {name!r} outcomes must be an array")
        mass, total = [], 0.0   # the mass summed in outcome order
        for out in rec["outcomes"]:
            try:
                target, prob = out["target"], out["prob"]
                if type(prob) in _NOT_NUMBERS:
                    raise TypeError
                prob = float(prob)
            except (KeyError, TypeError, ValueError):
                raise MalformedModel(
                    f"action {name!r} outcome {out!r} is not an object "
                    "with a target and a numeric prob") from None
            succ.append(_state(index, target, "outcome target"))
            mass.append(prob)
            total += prob
        # NaN fails ">= 0" and an infinite mass fails the sum test below
        if not mass or not all(p >= 0 for p in mass):
            raise BadDistribution(f"action {name!r} has negative or NaN outcome mass")
        if abs(total - 1.0) > PROB_TOL:
            raise BadDistribution(f"action {name!r} outcome mass sums to {total}")
        source.append(src)
        action_names.append(name)
        costs.append(cost)
        lengths.append(len(mass))
        probs += mass

    if len(set(zip(source, action_names))) < len(source):
        seen = set()
        for pair in sorted(zip(source, action_names), key=lambda pair: pair[0]):
            if pair in seen:
                raise MalformedModel(
                    f"state {names[pair[0]]!r} has duplicate action name {pair[1]!r}")
            seen.add(pair)

    return _build_model(tuple(names), initial, goals, bounds, source, action_names,
                        costs, lengths, succ, probs)


def load_model_file(path) -> CsspModel:
    with open(path, "r", encoding="utf-8") as fh:
        return load_model(fh.read())


def model_to_document(model: CsspModel) -> dict:
    """Inverse of load_model, for the generator CLI."""
    pairs, names = model.pairs(), model.state_names
    actions = [
        {"name": name, "source": names[s], "cost": cost,
         "outcomes": [{"target": names[t], "prob": p} for t, p in zip(succ, mass)]}
        for name, s, cost, succ, mass in zip(
            model.action_names, pairs.state.tolist(), pairs.cost.tolist(),
            pairs.successors, pairs.probs[:, 0].tolist())
    ]
    return {
        "states": list(names),
        "initial": names[model.initial],
        "goals": sorted(names[g] for g in model.goals),
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


def policy_to_names(model: CsspModel, policy: StochasticPolicy) -> dict:
    offsets = model.pairs().offset_list
    return {
        model.state_names[s]: [[model.action_names[offsets[s] + a], float(p)]
                               for a, p in dist]
        for s, dist in sorted(policy.distribution.items())
    }


def policy_from_names(model: CsspModel, doc: Mapping) -> StochasticPolicy:
    """The policy of a ``{state: [[action, probability], ...]}`` document.

    Raises MalformedPolicy unless the document has that shape, with known names
    and numeric probabilities (no booleans or strings) forming a distribution.
    """
    if not isinstance(doc, Mapping):
        raise MalformedPolicy("policy must be a JSON object")
    dist = {}
    try:
        for name, entries in doc.items():
            s = model.state_id(name)
            if not isinstance(entries, (list, tuple)):
                raise MalformedPolicy(f"policy entry of {name!r} must be an array")
            row = []
            for entry in entries:
                try:
                    if not isinstance(entry, (list, tuple)) or type(entry[1]) in _NOT_NUMBERS:
                        raise TypeError
                    action, p = entry
                    p = float(p)
                except (TypeError, ValueError, IndexError):
                    raise MalformedPolicy(f"{entry!r} at {name!r} is not an "
                                          "[action, probability] pair") from None
                row.append((model.action_id(s, action), p))
            dist[s] = tuple(row)
    except MalformedModel as exc:   # an unknown state or action name
        raise MalformedPolicy(str(exc)) from None
    policy = StochasticPolicy(dist)
    policy_entries(model, policy)   # raises MalformedPolicy on a bad distribution
    return policy


# ---------------------------------------------------------------------------
# envelopes and evaluation
# ---------------------------------------------------------------------------

def _reach(model: CsspModel, ids: np.ndarray, start: StateId) -> np.ndarray:
    """Bool per state: reachable from ``start`` by following the pairs ``ids``.

    A frontier pass over a successor table with a row per state that has
    pairs in ``ids``, holding their successors at their action ids and the
    sentinel elsewhere; every other state's row holds the sentinel only.
    Each round keeps the states not reached before, once each.
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
    return claim[:num] >= 0


def policy_entries(model: CsspModel, policy: StochasticPolicy) -> tuple:
    """The policy's (pair id, probability) entries, in its listing order.

    Returns the pair ids and the probabilities as two arrays.  Listing
    order matters: a state's transition and cost rows sum its actions in
    this order.  Raises MalformedPolicy on an unknown state or action id,
    which would otherwise name another state's pair, on a negative or NaN
    probability, and on a state whose probabilities do not sum to 1.
    """
    offsets, num = model.pairs().offset_list, model.num_states
    ids, probs = [], []
    for s, dist in policy.distribution.items():
        if not 0 <= s < num:
            raise MalformedPolicy(f"unknown state id {s}")
        lo = offsets[s]
        total = 0.0
        for a, p in dist:
            if not 0 <= a < offsets[s + 1] - lo:
                raise MalformedPolicy(
                    f"action id {a} not applicable in state {model.state_names[s]!r}")
            if not p >= 0:
                raise MalformedPolicy("negative or NaN action probability")
            total += p
            ids.append(lo + a)
            probs.append(p)
        if abs(total - 1.0) > PROB_TOL:
            raise MalformedPolicy(
                f"probabilities at {model.state_names[s]!r} sum to {total}")
    return np.array(ids, dtype=np.intp), np.array(probs, dtype=float)


class PolicySystem(NamedTuple):
    """A policy's transient system over its envelope, as sparse rows in blocks.

    ``states`` are the envelope's non-goal states, ascending; row ``r`` is
    state ``states[r]``.  ``moves[r]`` holds row ``r``'s transitions to rows
    as ``(col, prob)`` entries, ascending by column: one per non-goal
    successor that an outcome of the row's entries names, zero-probability
    outcomes included.  ``blocks`` are the strongly connected components of
    that graph, each its rows ascending, sinks first: a block comes after
    every other block it reaches.  ``ids``, ``probs`` and ``rows`` are the
    policy's positive entries at those states, in listing order, with each
    entry's row.
    """

    states: np.ndarray
    initial: int            # the initial state's row
    moves: tuple            # per row: [(col, prob), ...]
    blocks: tuple           # per strongly connected component: [row, ...]
    cost: np.ndarray        # (k, n + 1): expected one-step cost vectors
    goal_mass: np.ndarray   # (k,): one-step probability of entering a goal
    ids: np.ndarray
    probs: np.ndarray
    rows: np.ndarray


def policy_system(model: CsspModel, ids: np.ndarray, probs: np.ndarray) -> PolicySystem:
    """Transitions, blocks, cost vectors and goal mass of a policy given by entries.

    The envelope is every state reachable from the initial state under
    the entries with positive probability; a reachable non-goal state with
    no entry raises OpenPolicy.  One iterative depth-first walk (Tarjan's,
    SIAM J. Comput. 1(2), 1972) finds the envelope and its blocks, visiting
    each state once.  A state's sums run over its entries in listing order
    and their outcomes in order, as a per-state loop over the listed
    actions would.
    """
    pairs, goals = model.pairs(), model.goals
    successors, src, plist = pairs.successors, pairs.state.take(ids).tolist(), probs.tolist()
    listed = {}   # state -> its positive entries' successors and outcome weights
    for s, i, p, weights in zip(src, ids.tolist(), plist,
                                (pairs.probs.take(ids, axis=0)[:, 0] * probs[:, None]).tolist()):
        entries = listed.setdefault(s, [])
        if p > 0:
            entries.append((successors[i], weights))
    out, mass, open_states = {}, {}, []

    def visit(s):
        """Sum state ``s``'s row; its non-goal successors, to walk."""
        if s not in listed:
            open_states.append(s)
            return iter(())
        to, goal = {}, 0.0
        for succ, weights in listed[s]:
            for t, w in zip(succ, weights):
                if t in goals:
                    goal += w
                else:
                    to[t] = to.get(t, 0.0) + w
        out[s], mass[s] = to, goal
        return iter(to)

    num, low, path, blocks, work = {}, {}, [], [], []
    if model.initial not in goals:
        num[model.initial] = low[model.initial] = 0
        path.append(model.initial)
        work.append((model.initial, visit(model.initial)))
    while work:
        v, succ = work[-1]
        for w in succ:
            if w not in num:
                num[w] = low[w] = len(num)
                path.append(w)
                work.append((w, visit(w)))
                break
            if num[w] < low[v]:   # a finished block's states read inf
                low[v] = num[w]
        else:
            work.pop()
            if low[v] == num[v]:
                at = len(path) - 1
                while path[at] != v:
                    at -= 1
                blocks.append(path[at:])
                for w in path[at:]:
                    num[w] = math.inf
                del path[at:]
            if work and low[v] < low[work[-1][0]]:
                low[work[-1][0]] = low[v]
    if open_states:
        raise OpenPolicy(open_states)
    states = sorted(num)
    k, m = len(states), model.n + 1
    row = {s: r for r, s in enumerate(states)}
    moves = tuple([(row[t], w) for t, w in out[s].items()] for s in states)
    for entries in moves:
        entries.sort()
    keep = [j for j, (s, p) in enumerate(zip(src, plist)) if p > 0 and s in row]
    ids, probs = ids.take(keep), probs.take(keep)
    at = np.array([row[src[j]] for j in keep], dtype=np.intp)
    cost = np.bincount(((at * m)[:, None] + np.arange(m)).ravel(), minlength=k * m,
                       weights=(pairs.cost.take(ids, axis=0) * probs[:, None]).ravel())
    return PolicySystem(
        np.array(states, dtype=np.intp), row.get(model.initial, k), moves,
        tuple(sorted(map(row.get, block)) for block in blocks),
        cost.reshape(k, m), np.array([mass[s] for s in states], dtype=float), ids, probs, at)


def _solve_blocks(system: PolicySystem, rhs: np.ndarray, transpose: bool) -> np.ndarray:
    """Rows ``x`` of ``x = rhs + P x``, or of ``x = rhs + P^T x``, block by block.

    Blocks go sinks first, or sources first for ``P^T``, so each block's
    other columns are known.  A single row is substituted and its
    self-loop divided out; a larger block is one dense solve of
    ``I - P_BB`` (or its transpose).  Each row adds its known columns in
    ascending order.  An absorbing self-loop, a singular block or a
    non-finite result raises ImproperPolicy.
    """
    moves, blocks = system.moves, system.blocks
    if transpose:
        into = [[] for _ in moves]
        for r, entries in enumerate(moves):
            for c, q in entries:
                into[c].append((r, q))
        moves, blocks = into, blocks[::-1]
    b, x = rhs.tolist(), [None] * len(moves)
    for block in blocks:
        if len(block) == 1:
            r = block[0]
            acc, stay = b[r], 0.0
            for c, q in moves[r]:
                if c == r:
                    stay = q
                else:
                    acc = [a + q * v for a, v in zip(acc, x[c])]
            if not stay < 1.0:
                raise ImproperPolicy(_TRAPPED)
            x[r] = [a / (1.0 - stay) for a in acc]
            continue
        at = {r: j for j, r in enumerate(block)}
        matrix, known = np.eye(len(block)), []
        for j, r in enumerate(block):
            acc = b[r]
            for c, q in moves[r]:
                if c in at:
                    matrix[j, at[c]] -= q
                else:
                    acc = [a + q * v for a, v in zip(acc, x[c])]
            known.append(acc)
        try:
            sol = solve_linear_system(matrix, known)
        except SingularMatrix:
            raise ImproperPolicy(_TRAPPED) from None
        for r, v in zip(block, sol.tolist()):
            x[r] = v
    x = np.array(x, dtype=float).reshape(rhs.shape)
    if not np.isfinite(x).all():
        raise ImproperPolicy(_TRAPPED)
    return x


def evaluate_policy(model: CsspModel, policy: StochasticPolicy) -> np.ndarray:
    """Expected cost vector of a closed proper policy from the initial state."""
    system = policy_system(model, *policy_entries(model, policy))
    if not len(system.states):
        return np.zeros(model.n + 1)
    return policy_values(model, system)[system.initial].copy()


def policy_values(model: CsspModel, system: PolicySystem) -> np.ndarray:
    """Expected cost vectors from each of the system's states, one row each.

    One block solve, sinks first, gives goal-reachability and values
    together.  It raises ImproperPolicy on an improper policy, and so does
    a reach probability off 1 by more than 1e-9 (a trap no block shows as
    singular shows up here).
    """
    sol = _solve_blocks(system, np.column_stack((system.goal_mass, system.cost)), False)
    off = np.abs(sol[:, 0] - 1.0)
    if not np.all(off <= 1e-9):
        worst = int(np.argmax(off))
        raise ImproperPolicy(
            f"goal reached with probability {sol[worst, 0]:.6f} != 1 "
            f"from state {model.state_names[system.states[worst]]!r}")
    return sol[:, 1:]


def policy_visits(system: PolicySystem) -> np.ndarray:
    """Expected visits to each of the system's states from the initial state.

    One block solve of ``v = e0 + P^T v``, sources first; it raises
    ImproperPolicy as ``policy_values``'s does, but checks no reach
    probability.
    """
    e0 = np.zeros((len(system.states), 1))
    e0[system.initial] = 1.0
    return _solve_blocks(system, e0, True)[:, 0]


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
    pairs, target = model.pairs(), min(model.goals)
    real = pairs.target < model.num_states
    lengths = real.sum(axis=1)
    give_up = np.array([name.startswith(GIVE_UP_NAME) for name in model.action_names],
                       dtype=bool)
    same = give_up & (lengths == 1) & (pairs.target[:, 0] == target) \
        & (pairs.cost == penalty).all(axis=1)
    keep = pairs.goal_mask.copy()
    keep[pairs.state[same]] = True
    add = np.flatnonzero(~keep)
    offsets, names = pairs.offset_list, []
    for s in add.tolist():
        taken = set(model.action_names[offsets[s]:offsets[s + 1]])
        name, k = GIVE_UP_NAME, 2
        while name in taken:
            name, k = f"{GIVE_UP_NAME}{k}", k + 1
        names.append(name)
    # the give-up pairs follow every state's own pairs
    return _build_model(
        model.state_names, model.initial, model.goals, model.bounds,
        np.concatenate((pairs.state, add)), model.action_names + tuple(names),
        np.concatenate((pairs.cost, np.broadcast_to(penalty, (len(add), model.n + 1)))),
        np.concatenate((lengths, np.ones(len(add), dtype=int))),
        np.concatenate((pairs.target[real], np.full(len(add), target))),
        np.concatenate((pairs.probs[:, 0][real], np.ones(len(add)))))


def reachable_states(model: CsspModel, start: Optional[StateId] = None) -> frozenset:
    """States reachable from ``start`` under any sequence of actions."""
    if start is None:
        start = model.initial
    seen = _reach(model, np.arange(len(model.pairs().state)), start)
    return frozenset(np.flatnonzero(seen).tolist())
