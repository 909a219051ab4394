"""Admissible vector heuristics over the all-outcomes determinisation.

The determinised graph treats every outcome of every action as a
deterministic edge carrying the action's full cost vector.  Any execution
trace of any policy is a path in this graph, so per-component shortest-path
distances lower-bound the corresponding expected costs.

The edges are the model's predecessor lists over pair ids
(``CsspModel.layout``).  Distances come from one frontier Bellman-Ford
relaxation (Bellman, "On a routing problem", 1958) over them, which
handles every weight column at once, so the ideal point's components
share one pass.  Every distance is the float sum ``weight + d(t)`` along
the best edge, as a Dijkstra pass computes it, so the values are the same
bits.  A shortest-path tree read off the final distances attributes
vector costs for the lambda heuristic and gives ``close_policy`` its
cheapest exits; its tie rule is the edge a Dijkstra pass that pops
``(distance, state id)`` would settle on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import UnreachableGoal
from .model import CsspModel, _ranges, reachable_states

ZERO, IDEAL_POINT, LAMBDA_SCALARISED = "zero", "ideal-point", "lambda"


@dataclass(frozen=True)
class HeuristicVector:
    """Per-state lower-bound vectors plus the provenance of the estimate."""

    values: np.ndarray            # shape (num_states, n + 1)
    kind: str
    lam: Optional[np.ndarray] = None   # only for lambda-scalarised heuristics


def _check_goal_reachable(model: CsspModel, dist: np.ndarray) -> None:
    """Every state reachable from the initial state must reach a goal."""
    if np.isfinite(dist).all():
        return
    unreached = [model.state_names[s] for s in reachable_states(model)
                 if not np.isfinite(dist[s])]
    if unreached:
        raise UnreachableGoal(
            f"states cannot reach a goal in the determinisation: {sorted(unreached)}")


def shortest_distances(model: CsspModel, weight: np.ndarray) -> np.ndarray:
    """Distances to the nearest goal, one column per column of ``weight``.

    ``weight`` holds one row per pair of ``model.layout``.  A frontier
    Bellman-Ford relaxation from the goals over the predecessor edges
    (successor, pair): each round relaxes, in every column at once, the
    edges into the states whose distance just fell, found through the
    predecessor CSR, to ``weight + d(t)``.  A state's distance is the least
    such sum over its edges, the float expression and the fixpoint of
    Dijkstra.  Returns ``(num_states, k)`` distances, infinite where no
    goal is reachable.
    """
    pairs = model.layout
    to = np.repeat(np.arange(model.num_states), np.diff(pairs.pred_ptr))
    dist = np.full((model.num_states, weight.shape[1]), np.inf)
    dist[pairs.goal_mask] = 0.0
    fell = np.flatnonzero(pairs.goal_mask)
    claim = np.empty(model.num_states, dtype=np.intp)
    while len(fell):
        e = _ranges(pairs.pred_ptr, fell)
        pair = pairs.pred_ids.take(e)
        src = pairs.state.take(pair)
        cand = weight.take(pair, axis=0) + dist.take(to.take(e), axis=0)
        fell = src.compress((cand < dist.take(src, axis=0)).any(axis=1))
        np.minimum.at(dist, src, cand)
        # each state that fell keeps the one copy whose position it holds
        at = np.arange(len(fell))
        claim[fell] = at
        fell = fell.compress(claim.take(fell) == at)
    return dist


def shortest_path_tree(model: CsspModel, weight: np.ndarray, dist: np.ndarray) -> tuple:
    """Per state, the first edge of a shortest path: (pair id, successor).

    ``dist`` is ``shortest_distances`` under the one-column ``weight``.
    Among the edges (pair, successor) that attain ``d(s)`` from a successor
    with ``(d(t), t) < (d(s), s)``, the one with the smallest
    ``(d(t), t, pair id)`` is taken, which is the edge a Dijkstra pass that
    pops by ``(distance, state id)`` and scans pairs in ascending id settles
    on.  States without such an edge (goals, and states that reach no goal)
    get pair -1 and the sentinel as successor.
    """
    pairs = model.layout
    num = model.num_states
    dist = np.append(dist, np.inf)   # the sentinel
    d_t = dist[pairs.target]
    d_s = dist[pairs.state, None]
    tgt, src = pairs.target, pairs.state[:, None]
    ok = (weight[:, None] + d_t == d_s) & np.isfinite(d_s) & (
        (d_t < d_s) | ((d_t == d_s) & (tgt < src)))
    i, j = ok.nonzero()
    order = np.lexsort((i, tgt[i, j], d_t[i, j], pairs.state[i]))
    i, j = i[order], j[order]
    first = np.flatnonzero(np.diff(pairs.state[i], prepend=-1))
    i, j = i[first], j[first]
    pair = np.full(num, -1)
    succ = np.full(num, num)
    pair[pairs.state[i]] = i
    succ[pairs.state[i]] = tgt[i, j]
    return pair, succ


def zero_heuristic(model: CsspModel) -> HeuristicVector:
    """All-zero vectors; trivially admissible since primary costs are positive."""
    values = np.zeros((model.num_states, model.n + 1))
    values.setflags(write=False)
    return HeuristicVector(values, ZERO)


def ideal_point_heuristic(model: CsspModel) -> HeuristicVector:
    """Independent per-component shortest-path distances to the nearest goal.

    Component i is the shortest-path distance under edge weight C_i, so
    each entry lower-bounds the optimal expected cost of its component
    under any policy, and every scalarisation of the vector stays
    admissible.  One relaxation computes every component.
    """
    dist = shortest_distances(model, model.layout.cost)
    _check_goal_reachable(model, dist[:, 0])
    values = np.where(np.isfinite(dist), dist, 0.0)
    values.setflags(write=False)
    return HeuristicVector(values, IDEAL_POINT)


def lambda_heuristic(model: CsspModel, lam) -> HeuristicVector:
    """Scalarised shortest-path heuristic with action attribution.

    One shortest-path pass under the scalarised edge weight [1 lam] . C(a);
    the vector estimate then sums the *vector* costs of the actions on the
    chosen shortest path, so its scalar projection reproduces the distance
    exactly.  More informative than the ideal point for the scalarisation it
    was built for, but must be recomputed when the scalarisation changes.
    """
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (model.n,):
        raise ValueError(f"scalarisation must have {model.n} entries")
    if not np.all(np.isfinite(lam)):
        raise ValueError("scalarisation entries must be finite")
    if np.any(lam < 0):
        raise ValueError("scalarisation entries must be nonnegative")
    pairs = model.layout
    weight = np.vecdot(pairs.cost, np.concatenate(([1.0], lam)))
    dist = shortest_distances(model, weight[:, None])[:, 0]
    _check_goal_reachable(model, dist)
    pair, succ = shortest_path_tree(model, weight, dist)

    # each path's vector cost, summed from the goal end one tree level at
    # a time: a level is the children of the last, grouped by parent
    child = np.flatnonzero(pair >= 0)
    child = child.take(np.argsort(succ.take(child), kind="stable"))
    ptr = np.searchsorted(succ.take(child), np.arange(model.num_states + 1))
    values = np.zeros((model.num_states, model.n + 1))
    level = np.flatnonzero(pairs.goal_mask)
    while len(level):
        level = child.take(_ranges(ptr, level))
        values[level] = values[succ.take(level)] + pairs.cost[pair.take(level)]
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
