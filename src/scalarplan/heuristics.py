"""Admissible vector heuristics over the all-outcomes determinisation.

The determinised graph treats every individual outcome of every action as a
deterministic edge carrying the action's full cost vector.  Any execution
trace of any policy is a path in this graph, so per-component shortest-path
distances lower-bound the corresponding expected costs.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import UnreachableGoal
from .model import CsspModel, reachable_states

ZERO, IDEAL_POINT, LAMBDA_SCALARISED = "zero", "ideal-point", "lambda"


@dataclass(frozen=True)
class HeuristicVector:
    """Per-state lower-bound vectors plus the provenance of the estimate."""

    values: np.ndarray            # shape (num_states, n + 1)
    kind: str
    lam: Optional[np.ndarray] = None   # only for lambda-scalarised heuristics


def _check_goal_reachable(model: CsspModel, dist: np.ndarray, reachable) -> None:
    """Every state in ``reachable`` must reach a goal in the determinisation."""
    unreached = [model.state_names[s] for s in reachable
                 if not np.isfinite(dist[s])]
    if unreached:
        raise UnreachableGoal(
            f"states cannot reach a goal in the determinisation: {sorted(unreached)}")


def _dijkstra(model: CsspModel, weight: np.ndarray) -> tuple:
    """Backward Dijkstra from the goals; ``weight`` has one entry per pair.

    The pairs are those of ``model.pairs()``, and the edges into a state are
    the pair ids ``model.predecessors()`` lists for it.  Returns (distances,
    parent) where parent[s] = (action id, successor state) on the chosen
    shortest path.  Ties break on smallest state id via the heap key; the
    edge scan order is ascending pair id.
    """
    offsets, source = model.pairs().offset_list, model.pairs().state.tolist()
    weight = weight.tolist()
    dist = np.full(model.num_states, np.inf)
    parent = [None] * model.num_states
    heap = []
    for g in sorted(model.goals):
        dist[g] = 0.0
        heapq.heappush(heap, (0.0, g))
    rev = model.predecessors()
    done = np.zeros(model.num_states, dtype=bool)
    while heap:
        d, t = heapq.heappop(heap)
        if done[t]:
            continue
        done[t] = True
        for i in rev[t].tolist():
            s = source[i]
            if done[s] or model.is_goal(s):
                continue
            cand = weight[i] + dist[t]
            if cand < dist[s]:
                dist[s] = cand
                parent[s] = (i - offsets[s], t)
                heapq.heappush(heap, (cand, s))
    return dist, parent


def zero_heuristic(model: CsspModel) -> HeuristicVector:
    """All-zero vectors; trivially admissible since primary costs are positive."""
    values = np.zeros((model.num_states, model.n + 1))
    values.setflags(write=False)
    return HeuristicVector(values, ZERO)


def ideal_point_heuristic(model: CsspModel) -> HeuristicVector:
    """Independent per-component shortest-path distances to the nearest goal.

    Component i runs its own Dijkstra pass under edge weight C_i, so each
    entry lower-bounds the optimal expected cost of its component under any
    policy, and every scalarisation of the vector stays admissible.
    """
    values = np.zeros((model.num_states, model.n + 1))
    reachable = reachable_states(model)
    cost = model.pairs().cost
    for i in range(model.n + 1):
        dist, _ = _dijkstra(model, cost[:, i])
        _check_goal_reachable(model, dist, reachable)
        values[:, i] = np.where(np.isfinite(dist), dist, 0.0)
    values.setflags(write=False)
    return HeuristicVector(values, IDEAL_POINT)


def lambda_heuristic(model: CsspModel, lam) -> HeuristicVector:
    """Scalarised shortest-path heuristic with action attribution.

    One Dijkstra pass under the scalarised edge weight [1 lam] . C(a); the
    vector estimate then sums the *vector* costs of the actions on the chosen
    shortest path, so its scalar projection reproduces the Dijkstra distance
    exactly.  More informative than the ideal point for the scalarisation it
    was built for, but must be recomputed when the scalarisation changes.
    """
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (model.n,):
        raise ValueError(f"scalarisation must have {model.n} entries")
    if np.any(lam < 0):
        raise ValueError("scalarisation entries must be nonnegative")
    w = np.concatenate(([1.0], lam))
    dist, parent = _dijkstra(model, np.vecdot(model.pairs().cost, w))
    _check_goal_reachable(model, dist, reachable_states(model))

    values = np.zeros((model.num_states, model.n + 1))
    resolved = np.zeros(model.num_states, dtype=bool)
    for g in model.goals:
        resolved[g] = True
    for s in range(model.num_states):
        if parent[s] is None and not resolved[s]:
            continue   # outside the reachable region; zero vector is safe
        chain = []
        t = s
        while not resolved[t]:
            chain.append(t)
            t = parent[t][1]
        acc = values[t].copy()
        for u in reversed(chain):
            acc = acc + model.actions[u][parent[u][0]].cost
            values[u] = acc
            resolved[u] = True
    values.setflags(write=False)
    return HeuristicVector(values, LAMBDA_SCALARISED, lam)


def make_heuristic(model: CsspModel, kind: str, lam=None) -> HeuristicVector:
    if kind == ZERO:
        return zero_heuristic(model)
    if kind == IDEAL_POINT:
        return ideal_point_heuristic(model)
    if kind == LAMBDA_SCALARISED:
        if lam is None:
            lam = np.zeros(model.n)
        return lambda_heuristic(model, lam)
    raise ValueError(f"unknown heuristic kind {kind!r}")
