"""Independent oracles the test suite checks the library against.

Everything here is deliberately naive: full-sweep value iteration, exhaustive
outcome enumeration, policy enumeration over tiny models, and Monte-Carlo
simulation.  None of it shares code paths with the solvers under test.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

import numpy as np


class Action(NamedTuple):
    name: str
    cost: np.ndarray        # (n + 1,)
    successors: np.ndarray  # int state ids, in outcome order
    probs: np.ndarray       # matching probabilities


def action_table(model):
    """Per state, its actions in action-id order, read off the pair layout.

    Each record is one pair's row without the padding:
    ``cost[i]``, ``successors[i]`` and ``probs[i, 0, :k]`` for its ``k``
    outcomes.
    """
    pairs = model.layout
    table = [[] for _ in range(model.num_states)]
    for i, (s, succ) in enumerate(zip(pairs.state.tolist(), pairs.successors)):
        table[s].append(Action(model.action_names[i], pairs.cost[i],
                               np.array(succ, dtype=int), pairs.probs[i, 0, :len(succ)]))
    return table


def scalarised_vi(model, lam, residual=1e-10, max_sweeps=2_000_000):
    """Scalar value iteration on the scalarised costs, run to convergence."""
    lam = np.asarray(lam, dtype=float)
    w = np.concatenate(([1.0], lam))
    values = np.zeros(model.num_states)
    rows = []
    for s, state_acts in enumerate(action_table(model)):
        if model.is_goal(s):
            rows.append(None)
            continue
        acts = [(float(w @ a.cost), a.successors, a.probs) for a in state_acts]
        rows.append(acts)
    for _ in range(max_sweeps):
        delta = 0.0
        for s in range(model.num_states):
            if rows[s] is None or not rows[s]:
                continue
            best = min(c + float(p @ values[succ]) for c, succ, p in rows[s])
            delta = max(delta, abs(best - values[s]))
            values[s] = best
        if delta <= residual:
            return values
    raise AssertionError("value iteration did not converge")


def exhaustive_policy_cost(model, policy_map, start=None):
    """Expected cost vector by exhaustive outcome enumeration (acyclic only)."""
    start = model.initial if start is None else start
    table = action_table(model)
    memo = {}

    def rec(s, depth):
        if model.is_goal(s):
            return np.zeros(model.n + 1)
        if depth > model.num_states + 2:
            raise AssertionError("model is not acyclic")
        if s in memo:
            return memo[s]
        act = table[s][policy_map[s]]
        out = act.cost.astype(float).copy()
        for t, p in zip(act.successors, act.probs):
            out += p * rec(int(t), depth + 1)
        memo[s] = out
        return out

    return rec(start, 0)


def enumerate_deterministic_policies(model):
    """All closed deterministic policy maps over states reachable under them."""
    from scalarplan.model import reachable_states

    reach = sorted(reachable_states(model))
    non_goal = [s for s in reach if not model.is_goal(s)]
    counts = np.diff(model.layout.offsets)
    for combo in itertools.product(*(range(counts[s]) for s in non_goal)):
        yield dict(zip(non_goal, combo))


def proper_policy_costs(model):
    """Cost vectors of every proper deterministic policy, by simulation-free walk."""
    from scalarplan.errors import ImproperPolicy, OpenPolicy
    from scalarplan.model import DeterministicPolicy, evaluate_policy

    out = []
    for mapping in enumerate_deterministic_policies(model):
        pol = DeterministicPolicy(mapping).to_stochastic()
        try:
            cost = evaluate_policy(model, pol)
        except (ImproperPolicy, OpenPolicy):
            continue
        out.append((mapping, cost))
    return out


def monte_carlo_cost(model, policy, trials, seed, max_steps=100_000):
    """Mean sampled cost vector and its standard errors under the policy."""
    rng = np.random.default_rng(seed)
    table = action_table(model)
    totals = np.zeros((trials, model.n + 1))
    state = np.full(trials, model.initial)
    active = np.ones(trials, dtype=bool)
    goal_mask = np.zeros(model.num_states, dtype=bool)
    for g in model.goals:
        goal_mask[g] = True
    active &= ~goal_mask[state]
    for _ in range(max_steps):
        if not active.any():
            break
        for s in np.unique(state[active]):
            here = active & (state == s)
            k = int(here.sum())
            dist = policy.distribution.get(int(s), ())
            acts = [a for a, _ in dist]
            probs = np.array([p for _, p in dist])
            chosen = rng.choice(len(acts), size=k, p=probs / probs.sum())
            for ai, a in enumerate(acts):
                sel = np.flatnonzero(here)[chosen == ai]
                if sel.size == 0:
                    continue
                act = table[int(s)][a]
                totals[sel] += act.cost
                nxt = rng.choice(act.successors, size=sel.size,
                                 p=act.probs / act.probs.sum())
                state[sel] = nxt
        active = active & ~goal_mask[state]
    if active.any():
        raise AssertionError("simulation exceeded the step cap")
    mean = totals.mean(axis=0)
    sem = totals.std(axis=0, ddof=1) / np.sqrt(trials)
    return mean, sem


def lagrangian_by_enumeration(model, lam):
    """L(lam) = min over proper deterministic policies of the scalarised cost."""
    lam = np.asarray(lam, dtype=float)
    w = np.concatenate(([1.0], lam))
    best = np.inf
    for _, cost in proper_policy_costs(model):
        best = min(best, float(w @ cost) - float(lam @ model.bounds))
    return best


def bellman_residual(model, values, lam, s, epsilon=1e-4):
    """Residual ``max |V(s) - Q(s, a)|`` of one greedy backup at ``s``, per action.

    ``a`` is chosen by the search's tie rule: scalarised Q-values within
    ``min(epsilon, 1e-9 * (1 + |m|))`` of the minimum ``m`` tie, and ties go
    to the lexicographically smallest Q vector, then the smallest action id.
    """
    if model.is_goal(s):
        return 0.0
    w = np.concatenate(([1.0], np.asarray(lam, dtype=float)))
    qs = [act.cost + act.probs @ values[act.successors] for act in action_table(model)[s]]
    scal = [float(w @ q) for q in qs]
    m = min(scal)
    window = min(epsilon, 1e-9 * (1.0 + abs(m)))
    _, a = min((tuple(q), a) for a, (q, v) in enumerate(zip(qs, scal)) if v <= m + window)
    return float(np.max(np.abs(values[s] - qs[a])))


def search_residual(result):
    """Bellman residual ``max |V(s) - Q(s, choice(s))|`` of a ``SearchResult``,
    state by state over its envelope, at its values."""
    table, values = action_table(result.model), result.V.values
    out = 0.0
    for s, a in result.choice.items():
        act = table[s][a]
        q = act.cost + act.probs @ values[act.successors]
        out = max(out, float(np.max(np.abs(values[s] - q))))
    return out


# ---------------------------------------------------------------------------
# loop forms of the library's vectorised passes over pair ids
# ---------------------------------------------------------------------------

def reference_mark(model, V, states):
    """A search's marks for the states whose values moved, state by state:
    each is touched, every pair with it among its successors turns dirty,
    and so does each of its own pairs outside the partial problem."""
    pairs = model.layout
    for s in states:
        V.touched[s] = True
        for i, succ in enumerate(pairs.successors):
            if s in succ:
                V.dirty[i] = True
        for i in range(pairs.offset_list[s], pairs.offset_list[s + 1]):
            if not V.included[i]:
                V.dirty[i] = True


def reference_reachable_states(model):
    """States reachable from the initial state under any actions, by depth-first search."""
    table = action_table(model)
    seen = {model.initial}
    stack = [model.initial]
    while stack:
        s = stack.pop()
        if model.is_goal(s):
            continue
        for act in table[s]:
            for t in act.successors:
                t = int(t)
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
    return frozenset(seen)


def reference_envelope(model, policy, start=None):
    """States reachable under positive-probability choices, by depth-first search.

    Raises OpenPolicy when a reachable non-goal state has no entry.
    """
    from scalarplan.errors import OpenPolicy

    if start is None:
        start = model.initial
    table = action_table(model)
    seen = {start}
    stack = [start]
    open_states = []
    while stack:
        s = stack.pop()
        if model.is_goal(s):
            continue
        dist = policy.distribution.get(s, ())
        if not dist:
            open_states.append(s)
            continue
        for a, p in dist:
            if p <= 0:
                continue
            for t in table[s][a].successors:
                t = int(t)
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
    if open_states:
        raise OpenPolicy(open_states)
    return frozenset(seen)


def reference_policy_matrices(model, policy, states):
    """Transition matrix, per-component costs, goal mass and edges, one dict loop.

    ``edge[i, j]`` marks every successor an outcome of a positive entry
    names.
    """
    idx = {s: i for i, s in enumerate(states)}
    k = len(states)
    p = np.zeros((k, k))
    edge = np.zeros((k, k), dtype=bool)
    c = np.zeros((k, model.n + 1))
    goal_mass = np.zeros(k)
    table = action_table(model)
    for s in states:
        i = idx[s]
        for a, w in policy.distribution.get(s, ()):
            if w <= 0:
                continue
            act = table[s][a]
            c[i] += w * act.cost
            for t, q in zip(act.successors, act.probs):
                t = int(t)
                if model.is_goal(t):
                    goal_mass[i] += w * q
                else:
                    p[i, idx[t]] += w * q
                    edge[i, idx[t]] = True
    return idx, p, c, goal_mass, edge


def reference_blocks(edge):
    """Strongly connected blocks of ``edge``, sinks first, by transitive closure.

    A block that reaches another reaches strictly more states, so ordering
    the blocks by how many states they reach lists every block after the
    blocks it reaches.
    """
    k = len(edge)
    reach = edge | np.eye(k, dtype=bool)
    while True:
        wider = reach | (reach.astype(int) @ reach.astype(int) > 0)
        if (wider == reach).all():
            break
        reach = wider
    blocks = {tuple(j for j in range(k) if reach[i, j] and reach[j, i]): int(reach[i].sum())
              for i in range(k)}
    return sorted(blocks, key=blocks.get)


def reference_block_solve(p, edge, rhs, blocks):
    """``x = rhs + p x`` block by block, in the order and sums of the library's solve.

    Each row adds ``p[r, c] * x[c]`` over the edges to solved columns,
    ascending; a single row then divides by one minus its self-loop and a
    larger block is one dense solve of ``I - p_BB``.
    """
    from scalarplan.errors import ImproperPolicy, SingularMatrix
    from scalarplan.linalg import solve_linear_system

    x = np.zeros(rhs.shape)
    for block in blocks:
        rows = list(block)
        acc = rhs[rows].copy()
        for j, r in enumerate(rows):
            for c in range(len(p)):
                if edge[r, c] and c not in block:
                    acc[j] = acc[j] + p[r, c] * x[c]
        if len(rows) == 1:
            if not p[rows[0], rows[0]] < 1.0:
                raise ImproperPolicy("absorbing self-loop")
            x[rows[0]] = acc[0] / (1.0 - p[rows[0], rows[0]])
            continue
        try:
            x[rows] = solve_linear_system(np.eye(len(rows)) - p[np.ix_(rows, rows)], acc)
        except SingularMatrix:
            raise ImproperPolicy("singular block") from None
    if not np.all(np.isfinite(x)):
        raise ImproperPolicy("values are not finite")
    return x


def _reference_system(model, policy):
    from scalarplan.model import policy_entries

    policy_entries(model, policy)   # the library's policy checks
    transient = sorted(s for s in reference_envelope(model, policy)
                       if not model.is_goal(s))
    return transient, reference_policy_matrices(model, policy, transient)


def _check_reach(sol):
    from scalarplan.errors import ImproperPolicy

    if not np.all(np.abs(sol[:, 0] - 1.0) <= 1e-9):
        raise ImproperPolicy("goal reached with probability != 1")


def reference_evaluate_policy(model, policy):
    """``evaluate_policy`` over the loop forms, solved block by block, sinks first."""
    transient, (idx, p, c, goal_mass, edge) = _reference_system(model, policy)
    if not transient:
        return np.zeros(model.n + 1)
    sol = reference_block_solve(p, edge, np.column_stack((goal_mass, c)),
                                reference_blocks(edge))
    _check_reach(sol)
    return sol[idx[model.initial], 1:].copy()


def _measure(model, policy, transient, idx, visits):
    offsets = model.layout.offset_list
    x = np.zeros(offsets[-1])
    for s in transient:
        for a, w in policy.distribution.get(s, ()):
            if w > 0:
                x[offsets[s] + a] = visits[idx[s]] * w
    return x


def reference_occupation_measure(model, policy):
    """``occupation_measure_of`` over the loop forms, solved block by block, sources first."""
    if model.is_goal(model.initial):
        return np.zeros(model.layout.offset_list[-1])
    transient, (idx, p, _, _, edge) = _reference_system(model, policy)
    e0 = np.zeros((len(transient), 1))
    e0[idx[model.initial]] = 1.0
    visits = reference_block_solve(p.T, edge.T, e0, reference_blocks(edge)[::-1])
    return _measure(model, policy, transient, idx, visits[:, 0])


def dense_evaluate_policy(model, policy):
    """``evaluate_policy`` as one dense LU solve over the whole envelope."""
    from scalarplan.errors import ImproperPolicy, SingularMatrix
    from scalarplan.linalg import solve_linear_system

    transient, (idx, p, c, goal_mass, _) = _reference_system(model, policy)
    if not transient:
        return np.zeros(model.n + 1)
    try:
        sol = solve_linear_system(np.eye(len(transient)) - p,
                                  np.column_stack((goal_mass, c)))
    except SingularMatrix:
        raise ImproperPolicy("policy traps probability mass away from goals") from None
    _check_reach(sol)
    return sol[idx[model.initial], 1:].copy()


def dense_occupation_measure(model, policy):
    """``occupation_measure_of`` as one dense LU solve over the whole envelope."""
    from scalarplan.linalg import solve_linear_system

    if model.is_goal(model.initial):
        return np.zeros(model.layout.offset_list[-1])
    transient, (idx, p, _, _, _) = _reference_system(model, policy)
    e0 = np.zeros(len(transient))
    e0[idx[model.initial]] = 1.0
    visits = solve_linear_system((np.eye(len(transient)) - p).T, e0)
    return _measure(model, policy, transient, idx, visits)


# ---------------------------------------------------------------------------
# the simplex as it ran before the lean tableau
# ---------------------------------------------------------------------------

def _reference_pivot(t, basis, row, col):
    t[row] /= t[row, col]
    for r in range(t.shape[0]):
        if r != row and t[r, col] != 0.0:
            t[r] -= t[r, col] * t[row]
    rhs = t[:len(basis), -1]
    rhs[np.abs(rhs) < 1e-10] = 0.0
    basis[row] = col


def _reference_run(t, basis, allowed, bland_after, cap, pivots):
    """Pivot until no allowed column prices negative; returns (status, pivots)."""
    from scalarplan.errors import NumericalBreakdown
    from scalarplan.linalg import OPTIMAL, PIVOT_TOL, UNBOUNDED

    m = t.shape[0] - 1
    start = pivots
    while True:
        z = t[-1, :-1]
        use_bland = (pivots - start) >= bland_after
        neg = np.flatnonzero(allowed & (z < -1e-9))
        if neg.size == 0:
            return OPTIMAL, pivots
        col = int(neg[0]) if use_bland else int(neg[np.argmin(z[neg])])
        colvals = t[:m, col]
        rhs = np.maximum(t[:m, -1], 0.0)
        eligible = max(PIVOT_TOL, 1e-9 * float(np.max(np.abs(colvals), initial=0.0)))
        rows = np.flatnonzero(colvals > eligible)
        if rows.size == 0:
            if np.any(colvals > PIVOT_TOL):
                raise NumericalBreakdown(
                    f"only sub-tolerance pivots available in column {col}")
            return UNBOUNDED, pivots
        ratios = rhs[rows] / colvals[rows]
        tied = rows[(ratios - ratios.min()) * colvals[rows] <= 1e-9]
        if use_bland:
            row = int(tied[np.argmin(basis[tied])])
        else:
            row = int(tied[np.argmax(colvals[tied])])
        _reference_pivot(t, basis, row, col)
        pivots += 1
        if pivots - start > cap:
            raise NumericalBreakdown("pivot cap exceeded")


def reference_solve_lp(lp):
    """``solve_lp`` on the full tableau: a dense copy of the rows, then slack
    and artificial columns, every row tested per pivot.
    """
    from scalarplan.linalg import (
        FEASIBILITY_TOL, INFEASIBLE, OPTIMAL, PIVOT_TOL, UNBOUNDED, LpSolution)

    n, m = lp.n_vars, len(lp.rhs)
    n_slack = int(np.count_nonzero(~lp.equal))
    n_art = m - n_slack
    total = n + n_slack + n_art
    t = np.zeros((m + 1, total + 1))
    t[:m, :n] = lp.rows
    t[:m, -1] = lp.rhs
    basis = np.full(m, -1)
    art_cols = []
    s_at, a_at = n, n + n_slack
    for i, equal in enumerate(lp.equal.tolist()):
        if not equal:
            t[i, s_at] = 1.0
            basis[i] = s_at
            s_at += 1
            continue
        t[i, a_at] = 1.0
        basis[i] = a_at
        art_cols.append(a_at)
        a_at += 1
    art_cols = np.array(art_cols, dtype=int)
    bland_after = 3 * (m + total)
    cap = max(200_000, 200 * (m + total))
    pivots = 0
    allowed = np.ones(total, dtype=bool)
    allowed[art_cols] = False
    if art_cols.size:
        t[-1, art_cols] = 1.0
        for i in range(m):
            if basis[i] in art_cols:
                t[-1] -= t[i]
        status, pivots = _reference_run(t, basis, allowed, bland_after, cap, pivots)
        if status != OPTIMAL or -t[-1, -1] > FEASIBILITY_TOL:
            return LpSolution(INFEASIBLE, pivots=pivots)
        for i in range(m):
            if int(basis[i]) in set(art_cols.tolist()):
                row_abs = np.abs(t[i, :total])
                row_abs[art_cols] = 0.0
                j = int(np.argmax(row_abs))
                if row_abs[j] > max(PIVOT_TOL, 1e-9 * float(row_abs.max())):
                    _reference_pivot(t, basis, i, j)
                    pivots += 1
        t[:, art_cols] = 0.0
    cvec = np.asarray(lp.objective, dtype=float)
    t[-1, :] = 0.0
    t[-1, :n] = cvec if lp.sense == "min" else -cvec
    for i in range(m):
        if t[-1, basis[i]] != 0.0:
            t[-1] -= t[-1, basis[i]] * t[i]
    status, pivots = _reference_run(t, basis, allowed, bland_after, cap, pivots)
    if status == UNBOUNDED:
        return LpSolution(UNBOUNDED, pivots=pivots)
    values = np.zeros(n)
    for i in range(m):
        if basis[i] < n:
            values[basis[i]] += t[i, -1]
    return LpSolution(OPTIMAL, values, float(cvec @ values), pivots)


def _reference_build(state_names, initial, goals, bounds, source, action_names, cost,
                     lengths, succ, probs):
    """The pair layout as ``load_model`` built it with per-pair generators."""
    from scalarplan.model import CsspModel, PairLayout
    num = len(state_names)
    # each record keeps its outcomes of positive mass, in order: one of
    # probability 0 is no edge
    records, at = [], 0
    for k in lengths:
        records.append([(t, p) for t, p in zip(succ[at:at + k], probs[at:at + k]) if p > 0])
        at += k
    lengths = [len(outcomes) for outcomes in records]
    succ = [t for outcomes in records for t, _ in outcomes]
    probs = [p for outcomes in records for _, p in outcomes]
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


def reference_load_model(document):
    """``load_model`` as a per-record loop: each record checked in full before the next.

    Integers beyond double range raise OverflowError here, where
    ``load_model`` raises MalformedModel.
    """
    import json
    import math
    from typing import Mapping

    from scalarplan.errors import BadDistribution, MalformedModel, NonpositivePrimaryCost
    from scalarplan.model import PROB_TOL, _array, _state

    # types that float() and numpy read as numbers although JSON does not
    _NOT_NUMBERS = frozenset({bool, str, bytes, bytearray})

    if isinstance(document, str):
        try:
            document = json.loads(document)
        except (ValueError, RecursionError) as exc:
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

    return _reference_build(tuple(names), initial, goals, bounds, source, action_names,
                            costs, lengths, succ, probs)
