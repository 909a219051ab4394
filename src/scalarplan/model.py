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
from collections.abc import Mapping
from dataclasses import dataclass
from typing import NamedTuple, Optional, Union

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
    hi = ptr[1:].take(rows)
    count = hi - ptr.take(rows)
    base = (hi - count.cumsum()).repeat(count)
    return base + np.arange(len(base))


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
    # ``target`` with its padding at 0, kept for speed: Q gathers through
    # ``target`` with mode="wrap" or mode="clip" give the same bits but
    # measured 10-50% slower on random-1000 (2-core x86)
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

    def action_id(self, s: StateId, name: str) -> ActionId:
        offsets = self.layout.offset_list
        try:
            return self.action_names[offsets[s]:offsets[s + 1]].index(name)
        except ValueError:
            raise MalformedModel(
                f"state {self.state_names[s]!r} has no action named {name!r}") from None


def _build_model(state_names: tuple, initial: StateId, goals: frozenset,
                 bounds: np.ndarray, source, action_names: tuple, cost: np.ndarray,
                 target: np.ndarray, weights: np.ndarray) -> CsspModel:
    """The model with the given pairs, grouped state by state into its layout.

    ``source``, ``action_names`` and the rows of ``cost`` (n + 1 each),
    ``target`` and ``weights`` hold one entry per pair.  ``target`` and
    ``weights`` are the pairs' outcomes in order, padded to one width with
    the sentinel state ``num_states`` and with probability 0.  A state's
    pairs keep their order.
    """
    num = len(state_names)
    source = np.asarray(source, dtype=int)
    order = np.argsort(source, kind="stable")
    state, cost, target, weights = (a[order] for a in (source, cost, target, weights[:, None]))
    real = target < num
    padded = np.where(real, target, 0)
    state_ids = np.arange(num + 1)
    offsets = state.searchsorted(state_ids)
    # every (successor, pair) edge once, successor-major, then ascending pair
    # id: a stable sort keeps a pair's repeated successor next to itself,
    # and puts the padding, at the sentinel, last
    edges = np.argsort(target, axis=None, kind="stable")[:np.count_nonzero(real)]
    to, pair = target.ravel()[edges], edges // target.shape[1]
    keep = np.ones(len(edges), dtype=bool)
    keep[1:] = (pair[1:] != pair[:-1]) | (to[1:] != to[:-1])
    pred_ptr = to[keep].searchsorted(state_ids)
    pred_ids = pair[keep]
    goal_mask = np.zeros(num, dtype=bool)
    goal_mask[list(goals)] = True
    for arr in (offsets, cost, padded, target, weights, state, pred_ptr, pred_ids,
                goal_mask, bounds):
        arr.setflags(write=False)
    lengths = real.sum(axis=1).tolist()
    successors = tuple(tuple(row[:k]) for row, k in zip(target.tolist(), lengths))
    layout = PairLayout(offsets, cost, padded, target, weights, state, pred_ptr, pred_ids,
                        goal_mask, tuple(offsets.tolist()), successors)
    return CsspModel(state_names, initial, goals, bounds,
                     tuple(map(action_names.__getitem__, order.tolist())), layout)


# ---------------------------------------------------------------------------
# loading and validation
# ---------------------------------------------------------------------------

# types that float() and numpy read as numbers although JSON does not
_NOT_NUMBERS = frozenset({bool, str, bytes, bytearray})
# the number types of json.loads: a list of only these converts in one numpy call
_JSON_NUMBERS = frozenset({int, float})


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


def _number(value) -> Optional[float]:
    """``value`` as a float; None for a non-number or an integer beyond double range."""
    if type(value) in _NOT_NUMBERS:
        return None
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        return None


def _numbers(values: list) -> tuple:
    """``values`` as a float array, where a non-number reads NaN, and a mask of
    the values that are no numbers."""
    if _JSON_NUMBERS.issuperset(map(type, values)):
        try:
            return np.array(values, dtype=float), np.zeros(len(values), dtype=bool)
        except OverflowError:   # an integer beyond double range
            pass
    got = [_number(v) for v in values]
    bad = np.array([x is None for x in got], dtype=bool)
    return np.array([math.nan if x is None else x for x in got], dtype=float), bad


def _cost_row(name: str, cost, width: int) -> list:
    """A cost field that is not a list of ``width`` entries, as one, or its fault.

    The faults are checked in order: no array of numbers, then the wrong
    number of entries.
    """
    try:
        if isinstance(cost, (str, Mapping)):
            raise TypeError
        cost = list(cost)
        if any(_number(c) is None for c in cost):
            raise TypeError
    except TypeError:
        raise MalformedModel(f"action {name!r} cost must be an array of numbers") from None
    if len(cost) != width:
        raise MalformedModel(f"action {name!r} cost must have {width} entries")
    return cost


def _outcome_fault(name: str, out) -> MalformedModel:
    return MalformedModel(f"action {name!r} outcome {out!r} is not an object "
                          "with a target and a numeric prob")


class _Read(NamedTuple):
    """The action records read before the first structural fault, if any.

    ``records``, ``names``, ``source`` and ``costs`` (``n + 1`` entries
    each, concatenated) cover every record read whose source is no goal.
    ``lengths`` counts the outcomes of each, except of a last record whose
    outcomes the fault cut short.  ``succ`` and ``probs`` hold the outcomes
    read, concatenated; ``probs`` ends with one more entry when the fault is
    an unknown target.  Costs and probabilities are as the document gives
    them.
    """

    records: list
    names: list
    source: list
    costs: list
    lengths: list
    succ: list
    probs: list
    fault: Optional[MalformedModel]


def _read_records(records: list, index: dict, goals: frozenset, width: int) -> _Read:
    """One pass over the action records: keys, types and names, no numbers.

    It stops at the first structural fault and returns it with what it
    read before it, in the order of ``load_model``'s per-record checks.
    """
    kept, names, source, costs, lengths, succ, probs = [], [], [], [], [], [], []
    fault = None
    try:
        for rec in records:
            if type(rec) is not dict and not isinstance(rec, Mapping):
                raise MalformedModel("action records must be JSON objects")
            try:
                name, src, cost, outcomes = (
                    rec["name"], rec["source"], rec["cost"], rec["outcomes"])
            except KeyError:
                missing = next(key for key in ("name", "source", "cost", "outcomes")
                               if key not in rec)
                raise MalformedModel(f"action record missing {missing!r}") from None
            if not isinstance(name, str):
                raise MalformedModel(f"action name {name!r} must be a string")
            src = _state(index, src, "action source")
            if src in goals:
                continue  # goal states keep no actions
            if type(cost) is not list or len(cost) != width:
                cost = _cost_row(name, cost, width)
            kept.append(rec)
            names.append(name)
            source.append(src)
            costs += cost
            if not isinstance(outcomes, (list, tuple)):
                raise MalformedModel(f"action {name!r} outcomes must be an array")
            for out in outcomes:
                try:
                    target, prob = out["target"], out["prob"]
                except (KeyError, TypeError):
                    raise _outcome_fault(name, out) from None
                probs.append(prob)
                succ.append(_state(index, target, "outcome target"))
            lengths.append(len(outcomes))
    except MalformedModel as exc:
        fault = exc
    return _Read(kept, names, source, costs, lengths, succ, probs, fault)


def _check_numbers(read: _Read, width: int) -> tuple:
    """The records' cost rows, outcome slot mask and zero-padded mass table.

    The checks run on all records at once.  Per record, in order: the
    costs are numbers, finite, with a positive primary and nonnegative
    secondary costs; the probabilities are numbers; and, for records whose
    outcomes were all read, the mass is present, nonnegative and sums to 1
    within PROB_TOL.  The first faulty record's first failed check is raised.
    """
    count, done = len(read.names), len(read.lengths)
    cost, cost_bad = _numbers(read.costs)
    cost = cost.reshape(count, width)
    mass, mass_bad = _numbers(read.probs)
    lengths = np.array(read.lengths, dtype=int)
    real = np.arange(lengths.max(initial=1)) < lengths[:, None]
    padded = np.zeros(real.shape)
    padded[real] = mass[:int(lengths.sum())]
    # each record's mass summed left to right from 0.0, so a padded zero
    # keeps the bits of a Python loop's "total += prob", and inf - inf and
    # an overflow give NaN and inf there too
    total = np.zeros(done)
    with np.errstate(invalid="ignore", over="ignore"):
        for column in padded.T:
            total += column
    ends = lengths.cumsum()
    failed = np.zeros((count, 7), dtype=bool)
    # the rows of the faulty cost entries: cheaper than a per-row any
    failed[cost_bad.reshape(count, width).nonzero()[0], 0] = True
    failed[(~np.isfinite(cost)).nonzero()[0], 1] = True
    failed[:, 2] = cost[:, 0] <= 0
    failed[(cost[:, 1:] < 0).nonzero()[0], 3] = True
    failed[ends.searchsorted(mass_bad.nonzero()[0], side="right"), 4] = True
    failed[:done, 5] = (lengths == 0) | ~(padded >= 0).all(axis=1)
    failed[:done, 6] = np.abs(total - 1.0) > PROB_TOL
    if not failed.any():
        return cost, real, padded
    r = int(failed.any(axis=1).argmax())
    name, check = read.names[r], int(failed[r].argmax())
    if check == 0:
        raise MalformedModel(f"action {name!r} cost must be an array of numbers")
    if check == 1:
        raise MalformedModel(f"action {name!r} cost must be finite")
    if check == 2:
        raise NonpositivePrimaryCost(f"action {name!r} has primary cost {float(cost[r, 0])}")
    if check == 3:
        raise MalformedModel(f"action {name!r} has negative secondary cost")
    if check == 4:   # the first non-number of all is this record's
        first = int(mass_bad.argmax()) - int(ends[r - 1] if r else 0)
        raise _outcome_fault(name, read.records[r]["outcomes"][first])
    if check == 5:
        raise BadDistribution(f"action {name!r} has negative or NaN outcome mass")
    raise BadDistribution(f"action {name!r} outcome mass sums to {float(total[r])}")


def load_model(document: Union[str, Mapping]) -> CsspModel:
    """Build a validated model from the JSON interchange document.

    The document carries ``states``, ``initial``, ``goals``, ``n``, ``bounds``
    and ``actions`` (records of ``name``, ``source``, ``cost``, ``outcomes``).
    Actions whose source is a goal state are stripped.  One pass reads the
    records and one vectorised check tests their numbers; the fault reported
    is the one a record-by-record check in document order meets first.
    """
    if isinstance(document, str):
        try:
            document = json.loads(document)
        except (ValueError, RecursionError) as exc:   # also too deep or too long a number
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
    except (TypeError, ValueError, OverflowError):
        raise MalformedModel("bounds must be an array of numbers") from None
    if bounds.shape != (n,):
        raise MalformedModel(f"bounds must have {n} entries")
    if not _NOT_NUMBERS.isdisjoint(map(type, document["bounds"])):
        raise MalformedModel("bounds must be an array of numbers")
    if not (np.isfinite(bounds) & (bounds >= 0)).all():
        raise MalformedModel("bounds must be finite and nonnegative")

    read = _read_records(_array(document["actions"], "actions"), index, goals, n + 1)
    cost, real, mass = _check_numbers(read, n + 1)
    if read.fault is not None:
        raise read.fault

    if len(set(zip(read.source, read.names))) < len(read.source):
        seen = set()
        for pair in sorted(zip(read.source, read.names), key=lambda pair: pair[0]):
            if pair in seen:
                raise MalformedModel(
                    f"state {names[pair[0]]!r} has duplicate action name {pair[1]!r}")
            seen.add(pair)

    target = np.full(real.shape, len(names))
    target[real] = read.succ
    return _build_model(tuple(names), initial, goals, bounds, read.source, read.names,
                        cost, target, mass)


def load_model_file(path) -> CsspModel:
    """``load_model`` of a UTF-8 file; a file that is not UTF-8 is malformed."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise MalformedModel(f"not valid JSON: {exc}") from None
    return load_model(text)


def model_to_document(model: CsspModel) -> dict:
    """Inverse of load_model, for the generator CLI."""
    pairs, names = model.layout, model.state_names
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
    offsets = model.layout.offset_list
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
    index = {name: s for s, name in enumerate(model.state_names)}
    dist = {}
    try:
        for name, entries in doc.items():
            if name not in index:
                raise MalformedPolicy(f"unknown state name {name!r}")
            s = index[name]
            if not isinstance(entries, (list, tuple)):
                raise MalformedPolicy(f"policy entry of {name!r} must be an array")
            row = []
            for entry in entries:
                try:
                    if not isinstance(entry, (list, tuple)) or type(entry[1]) in _NOT_NUMBERS:
                        raise TypeError
                    action, p = entry
                    p = float(p)
                except (TypeError, ValueError, IndexError, OverflowError):
                    raise MalformedPolicy(f"{entry!r} at {name!r} is not an "
                                          "[action, probability] pair") from None
                row.append((model.action_id(s, action), p))
            dist[s] = tuple(row)
    except MalformedModel as exc:   # an unknown action name
        raise MalformedPolicy(str(exc)) from None
    policy = StochasticPolicy(dist)
    policy_entries(model, policy)   # raises MalformedPolicy on a bad distribution
    return policy


# ---------------------------------------------------------------------------
# envelopes and evaluation
# ---------------------------------------------------------------------------

def _reach(model: CsspModel, follow: np.ndarray) -> np.ndarray:
    """Bool per state: reachable from the initial state by the pairs ``follow`` marks.

    Each frontier round takes its states' pair ranges, keeps the marked
    pairs and moves to the successors not reached before, once each.
    """
    pairs, num = model.layout, model.num_states
    claim = np.full(num + 1, -1)   # -1 until reached
    claim[model.initial] = claim[num] = 0
    front = np.array([model.initial])
    while len(front):
        ids = _ranges(pairs.offsets, front)
        front = pairs.target.take(ids.compress(follow.take(ids)), axis=0).ravel()
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
    offsets, num = model.layout.offset_list, model.num_states
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
    pairs, goals = model.layout, model.goals
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
    pairs, num = model.layout, model.num_states
    # a give-up row: the first goal with probability 1, then padding
    mass = np.eye(1, pairs.target.shape[1])
    target = np.where(mass > 0, min(model.goals), num)
    give_up = np.array([name.startswith(GIVE_UP_NAME) for name in model.action_names],
                       dtype=bool)
    same = give_up & (pairs.target == target).all(axis=1) & (pairs.cost == penalty).all(axis=1)
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
        np.concatenate((pairs.target, target.repeat(len(add), axis=0))),
        np.concatenate((pairs.probs[:, 0], mass.repeat(len(add), axis=0))))


def reachable_states(model: CsspModel) -> frozenset:
    """States reachable from the initial state under any sequence of actions."""
    seen = _reach(model, np.ones(len(model.layout.state), dtype=bool))
    return frozenset(np.flatnonzero(seen).tolist())
