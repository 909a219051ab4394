"""Occupation measures, the policy mixture and the exact occupation-measure oracle.

An occupation measure assigns each (state, action) pair its expected number
of applications; a unit of flow enters the initial state and must all reach
the goals.  It is one float per pair of the model's pair layout
(``CsspModel.layout``), so its cost is ``x @ cost``, its flow balance is a
``bincount`` over the pairs' states and successors, and a mixture of
measures is ``mu @ X``.  A policy's measure fixes its cost vector, and
measures mix linearly: the stochastic policy that decodes from
``sum mu_k x(pi_k)`` costs exactly ``sum mu_k C(pi_k)``.  ``mix_policies``
uses that to combine the multiplier search's deterministic policies into an
optimal one: it prices each policy exactly and picks the weights with a
small LP, the Dantzig-Wolfe restricted master over those policies.

``flat_dual_solve`` instead optimises the full occupation-measure program
over every reachable state; it is the desk-scale exact oracle the rest of the
test suite validates against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import ExtractionInfeasible, Infeasible, NumericalBreakdown
from .heuristics import shortest_distances, shortest_path_tree
from .linalg import INFEASIBLE, OPTIMAL, LinearProgram, solve_lp
from .model import (
    CsspModel,
    StochasticPolicy,
    _reach,
    evaluate_policy,
    policy_entries,
    policy_system,
    policy_visits,
    reachable_states,
)

FLOW_TOL = 1e-9


def flow_residual(model: CsspModel, x: np.ndarray) -> float:
    """Worst violation of flow conservation and unit goal inflow of a measure."""
    pairs = model.layout
    out = np.bincount(pairs.state, weights=x, minlength=model.num_states)
    # padded outcomes fall in the sentinel's bin, which is dropped
    inflow = np.bincount(pairs.target.ravel(), minlength=model.num_states + 1,
                         weights=(x[:, None] * pairs.probs[:, 0]).ravel())[:-1]
    balance = out - inflow
    balance[model.initial] -= 1.0
    goals = list(model.goals)
    balance[goals] = 0.0
    goal_in = inflow[goals].sum() + (1.0 if model.is_goal(model.initial) else 0.0)
    return max(float(np.abs(balance).max()), abs(float(goal_in) - 1.0))


def close_policy(model: CsspModel, policy: StochasticPolicy) -> StochasticPolicy:
    """Complete a decoded policy at states only solver noise reaches.

    An optimal vertex can strand a feasibility-tolerance's worth of flow at a
    state whose own outflow rounded to zero, leaving the decoded policy open
    there.  Such states get the deterministic cheapest-exit action (shortest
    primary-cost path to a goal in the determinisation), which keeps the
    policy closed and proper while moving its cost by at most the stranded
    mass times that path cost.
    """
    pairs = model.layout
    num = model.num_states
    ids, probs = policy_entries(model, policy)
    follow = ids[probs > 0]
    # a walk that meets only listed states, goals and the sentinel needs no exit
    settled = np.empty(num + 1, dtype=bool)
    settled[:num] = pairs.goal_mask
    settled[num] = True
    settled[pairs.state.take(ids)] = True
    if settled[model.initial] and settled.take(pairs.target.take(follow, axis=0)).all():
        return StochasticPolicy(dict(policy.distribution))
    weight = pairs.cost[:, 0]
    exits, _ = shortest_path_tree(model, weight, shortest_distances(model, weight[:, None])[:, 0])
    # a state with no exit stays open; evaluation will report it
    closable = ~settled[:num] & (exits >= 0)
    mask = np.zeros(len(pairs.state), dtype=bool)
    mask[np.concatenate((follow, exits[closable]))] = True
    reached = _reach(model, mask)
    dist = dict(policy.distribution)
    for s in (reached & closable).nonzero()[0].tolist():
        dist[s] = ((int(exits[s]) - pairs.offset_list[s], 1.0),)
    return StochasticPolicy(dist)


def decode_policy(model: CsspModel, x: np.ndarray,
                  tol: float = FLOW_TOL) -> StochasticPolicy:
    """Normalise visit counts into per-state action distributions.

    Negative counts are solver noise and read as 0.  States whose total
    outflow is at most ``tol`` (LP noise) are omitted; a mixture of exactly
    priced measures is decoded with ``tol = 0``, which keeps its cost exact.
    """
    pairs = model.layout
    x = np.maximum(x, 0.0)
    total = np.bincount(pairs.state, weights=x, minlength=model.num_states)
    ids = (total > tol)[pairs.state].nonzero()[0]
    p = x[ids] / total[pairs.state[ids]]
    ids, p = ids[p > 0.0], p[p > 0.0]
    p /= np.bincount(pairs.state[ids], weights=p,
                     minlength=model.num_states)[pairs.state[ids]]
    dist = {}
    for s, i, p_i in zip(pairs.state[ids].tolist(), ids.tolist(), p.tolist()):
        dist.setdefault(s, []).append((i - pairs.offset_list[s], p_i))
    return StochasticPolicy({s: tuple(d) for s, d in dist.items()})


# ---------------------------------------------------------------------------
# exact oracle over the full reachable space
# ---------------------------------------------------------------------------

def build_om_lp(model: CsspModel, states: Iterable):
    """Occupation-measure LP over the given non-goal states, minimising primary cost.

    Returns the LP and its columns: the pair ids of those states, ascending.
    Its rows are one flow row per state, in ascending order (the state's own
    columns carry +1, every column that flows into it carries minus its
    probability, and the initial state's right-hand side is 1), a sink row
    asking the goals to take in unit flow, and one bound row per secondary
    cost.
    """
    pairs = model.layout
    rows = sorted(s for s in states if not model.is_goal(s))
    goals = list(model.goals)
    cols = np.isin(pairs.state, rows).nonzero()[0]
    k, f = len(cols), len(rows)
    # flow[r, j]: the mass column j sends into row r's state, summed outcome
    # by outcome; the sink row follows the flow rows, then the goals' rows,
    # then a row that takes every other successor, padding included, and
    # enough spare rows for the bound rows, which overwrite the goals' rows
    other = f + 1 + len(goals)
    height = max(other + 1, f + 1 + model.n)
    slot = np.full(model.num_states + 1, other)
    slot[rows] = np.arange(f)
    slot[goals] = f + 1 + np.arange(len(goals))
    at = slot[pairs.target[cols]] * k + np.arange(k)[:, None]
    flow = np.bincount(at.ravel(), weights=pairs.probs[cols, 0].ravel(),
                       minlength=height * k).reshape(height, k)
    flow = flow.astype(float, copy=False)   # bincount over no columns gives ints
    for r in range(f + 1, other):
        flow[f] += flow[r]
    flow[f + 1:f + 1 + model.n] = pairs.cost[cols, 1:].T
    np.subtract(0.0, flow[:f], out=flow[:f])
    flow[slot[pairs.state[cols]], np.arange(k)] += 1.0
    rhs = np.concatenate((np.array(rows) == model.initial, [1.0], model.bounds))
    equal = np.arange(f + 1 + model.n) <= f
    lp = LinearProgram("min", pairs.cost[cols, 0], flow[:f + 1 + model.n], rhs, equal)
    return lp, cols


def flat_dual_solve(model: CsspModel):
    """Exact solve of the full occupation-measure program.

    Returns (policy, cost vector, lp pivots).  The cost is the returned
    policy's own, from ``evaluate_policy``: decoding drops states the LP
    visits at most ``FLOW_TOL`` times and closing gives them exits, so the
    policy can cost slightly more than the LP's optimum.  Raises
    Infeasible when no feasible policy exists.
    """
    if model.is_goal(model.initial):
        return StochasticPolicy({}), np.zeros(model.n + 1), 0
    lp, cols = build_om_lp(model, reachable_states(model))
    sol = solve_lp(lp)
    if sol.status == INFEASIBLE:
        raise Infeasible("no feasible policy exists")
    if sol.status != OPTIMAL:
        raise NumericalBreakdown(f"occupation-measure solve ended {sol.status}")
    x = np.zeros(len(model.layout.state))
    x[cols] = sol.values
    policy = close_policy(model, decode_policy(model, x))
    return policy, evaluate_policy(model, policy), sol.pivots


# ---------------------------------------------------------------------------
# occupation measures of explicit policies, and their mixture
# ---------------------------------------------------------------------------

def occupation_measure_of(model: CsspModel, policy: StochasticPolicy) -> np.ndarray:
    """Expected visit counts of a closed proper policy from the initial state.

    Solves ``v = e0 + P^T v`` over the policy's envelope one strongly
    connected block at a time, sources first (``model.policy_visits``);
    an absorbing self-loop or a singular block raises ImproperPolicy.
    """
    x = np.zeros(len(model.layout.state))
    if model.is_goal(model.initial):
        return x
    system = policy_system(model, *policy_entries(model, policy))
    x[system.ids] = policy_visits(system)[system.rows] * system.probs
    return x


@dataclass(frozen=True)
class Mixture:
    """Weights over deterministic policies and the stochastic policy they make."""

    policies: list            # the distinct columns, one DeterministicPolicy each
    costs: np.ndarray         # (columns, n + 1): each column's exact cost vector
    weights: np.ndarray       # mu_k per column, nonnegative, summing to 1
    policy: StochasticPolicy  # decoded from sum mu_k x(pi_k)
    pivots: int               # the master LP's simplex pivots


def mix_policies(model: CsspModel, policies: Iterable) -> Mixture:
    """Cheapest mixture of deterministic policies that meets the bounds.

    Each distinct policy is priced exactly: one block solve gives its
    occupation measure ``x_k``, and the measure gives its cost vector
    ``C_k``.  The restricted master ``min sum mu_k C0_k`` subject to
    ``sum mu_k C_k <= bounds``, ``sum mu_k = 1`` and ``mu >= 0`` picks the
    weights, and ``sum mu_k x_k`` decodes into a stochastic policy with
    exactly that measure, hence that cost.  Raises ExtractionInfeasible
    when no mixture of the policies meets the bounds.
    """
    columns = {}
    for policy in policies:
        columns.setdefault(tuple(sorted(policy.mapping.items())), policy)
    policies = list(columns.values())
    measures = np.array([occupation_measure_of(model, p.to_stochastic())
                         for p in policies])
    costs = measures @ model.layout.cost
    lp = LinearProgram("min", costs[:, 0],
                       np.vstack((costs[:, 1:].T, np.ones(len(policies)))),
                       np.append(model.bounds, 1.0), np.arange(model.n + 1) == model.n)
    sol = solve_lp(lp)
    if sol.status != OPTIMAL:
        raise ExtractionInfeasible(
            f"no mixture of the {len(policies)} cut policies meets the bounds "
            f"(master LP {sol.status})")
    policy = close_policy(model, decode_policy(model, sol.values @ measures, tol=0.0))
    return Mixture(policies, costs, sol.values, policy, sol.pivots)
