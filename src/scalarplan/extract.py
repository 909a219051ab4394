"""Occupation measures, the policy mixture and the exact occupation-measure oracle.

An occupation measure assigns each (state, action) pair its expected number
of applications; a unit of flow enters the initial state and must all reach
the goals.  A policy's measure fixes its cost vector, and measures mix
linearly: the stochastic policy that decodes from ``sum mu_k x(pi_k)`` costs
exactly ``sum mu_k C(pi_k)``.  ``mix_policies`` uses that to combine the
multiplier search's deterministic policies into an optimal one: it prices
each policy exactly and picks the weights with a small LP, the
Dantzig-Wolfe restricted master over those policies.

``flat_dual_solve`` instead optimises the full occupation-measure program
over every reachable state; it is the desk-scale exact oracle the rest of the
test suite validates against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import ExtractionInfeasible, Infeasible, NumericalBreakdown
from .linalg import (
    EQUAL,
    INFEASIBLE,
    LESS,
    OPTIMAL,
    LinearProgram,
    solve_linear_system,
    solve_lp,
)
from .model import (
    CsspModel,
    StochasticPolicy,
    _policy_matrices,
    envelope,
    reachable_states,
)

FLOW_TOL = 1e-9


@dataclass(frozen=True)
class OccupationMeasure:
    """Nonnegative visit counts on a declared support of (state, action) pairs."""

    x: dict  # (state id, action id) -> float

    def support(self):
        return frozenset(k for k, v in self.x.items() if v > FLOW_TOL)


def flow_residual(model: CsspModel, measure: OccupationMeasure) -> float:
    """Worst violation of flow conservation and unit goal inflow."""
    out = {}
    inf = {}
    for (s, a), v in measure.x.items():
        out[s] = out.get(s, 0.0) + v
        act = model.actions[s][a]
        for t, p in zip(act.successors, act.probs):
            inf[int(t)] = inf.get(int(t), 0.0) + v * float(p)
    worst = 0.0
    for s in set(out) | set(inf):
        if model.is_goal(s):
            continue
        balance = out.get(s, 0.0) - inf.get(s, 0.0) - (1.0 if s == model.initial else 0.0)
        worst = max(worst, abs(balance))
    goal_in = sum(inf.get(g, 0.0) for g in model.goals)
    if model.is_goal(model.initial):
        goal_in += 1.0
    return max(worst, abs(goal_in - 1.0))


def measure_cost(model: CsspModel, measure: OccupationMeasure) -> np.ndarray:
    cost = np.zeros(model.n + 1)
    for (s, a), v in measure.x.items():
        cost += v * model.actions[s][a].cost
    return cost


def _flow_rows(model: CsspModel, pairs: list, states) -> list:
    """Flow-conservation rows of an occupation-measure program over ``pairs``.

    One ``(row, EQUAL, rhs)`` per non-goal state of ``states``, in ascending
    order: the state's own pair columns carry +1, every column that flows
    into it carries minus its probability, and the initial state's
    right-hand side is 1.  A last row asks the goals to take in unit flow.
    Pairs are indexed by state once, so no row scans every pair.
    """
    out = {}      # state -> its pair columns, ascending
    inflow = {}   # state -> {column: probability mass flowing in}
    for j, (s, a) in enumerate(pairs):
        out.setdefault(s, []).append(j)
        act = model.actions[s][a]
        for t, p in zip(act.successors, act.probs):
            into = inflow.setdefault(int(t), {})
            into[j] = into.get(j, 0.0) + float(p)
    rows = []
    for s in sorted(states):
        if model.is_goal(s):
            continue
        row = np.zeros(len(pairs))
        row[out.get(s, [])] += 1.0
        for j, p in inflow.get(s, {}).items():
            row[j] -= p
        rows.append((row, EQUAL, 1.0 if s == model.initial else 0.0))
    sink = np.zeros(len(pairs))
    for g in model.goals:
        for j, p in inflow.get(g, {}).items():
            sink[j] += p
    rows.append((sink, EQUAL, 1.0))
    return rows


def close_policy(model: CsspModel, policy: StochasticPolicy) -> StochasticPolicy:
    """Complete a decoded policy at states only solver noise reaches.

    An optimal vertex can strand a feasibility-tolerance's worth of flow at a
    state whose own outflow rounded to zero, leaving the decoded policy open
    there.  Such states get the deterministic cheapest-exit action (shortest
    primary-cost path to a goal in the determinisation), which keeps the
    policy closed and proper while moving its cost by at most the stranded
    mass times that path cost.
    """
    from .heuristics import _dijkstra
    dist = dict(policy.distribution)
    exits = None
    seen = set()
    stack = [model.initial]
    while stack:
        s = stack.pop()
        if s in seen or model.is_goal(s):
            continue
        seen.add(s)
        if s not in dist:
            if exits is None:
                _, parent = _dijkstra(model, model.pairs().cost[:, 0])
                exits = {i: p[0] for i, p in enumerate(parent) if p is not None}
            if s not in exits:
                continue   # no exit exists; evaluation will report it
            dist[s] = ((exits[s], 1.0),)
        for a, p in dist[s]:
            if p > 0:
                for t in model.actions[s][a].successors:
                    stack.append(int(t))
    return StochasticPolicy(dist)


def decode_policy(measure: OccupationMeasure) -> StochasticPolicy:
    """Normalise visit counts into per-state action distributions.

    States whose total outflow is below tolerance are unreachable under the
    induced policy and are omitted.
    """
    by_state = {}
    for (s, a), v in measure.x.items():
        by_state.setdefault(s, []).append((a, max(0.0, v)))
    dist = {}
    for s, flows in by_state.items():
        total = sum(v for _, v in flows)
        if total <= FLOW_TOL:
            continue
        probs = [(a, v / total) for a, v in sorted(flows)]
        probs = [(a, p) for a, p in probs if p > 0.0]
        norm = sum(p for _, p in probs)
        dist[s] = tuple((a, p / norm) for a, p in probs)
    return StochasticPolicy(dist)


# ---------------------------------------------------------------------------
# exact oracle over the full reachable space
# ---------------------------------------------------------------------------

def build_om_lp(model: CsspModel, states: Iterable) -> LinearProgram:
    """Occupation-measure LP over the given non-goal states, minimising primary cost."""
    pairs = [(s, a) for s in sorted(states)
             if not model.is_goal(s)
             for a in range(len(model.actions[s]))]
    lp = LinearProgram(n_vars=len(pairs), sense="min",
                       objective=np.array(
                           [model.actions[s][a].cost[0] for s, a in pairs]))
    for row in _flow_rows(model, pairs, states):
        lp.add_row(*row)
    for i in range(model.n):
        row = np.array([model.actions[s][a].cost[i + 1] for s, a in pairs])
        lp.add_row(row, LESS, float(model.bounds[i]))
    lp.pairs = pairs
    return lp


def flat_dual_solve(model: CsspModel):
    """Exact solve of the full occupation-measure program.

    Returns (policy, cost vector, lp pivots).  Raises Infeasible when no
    feasible policy exists.
    """
    if model.is_goal(model.initial):
        return StochasticPolicy({}), np.zeros(model.n + 1), 0
    states = reachable_states(model)
    lp = build_om_lp(model, states)
    sol = solve_lp(lp)
    if sol.status == INFEASIBLE:
        raise Infeasible("no feasible policy exists")
    if sol.status != OPTIMAL:
        raise NumericalBreakdown(f"occupation-measure solve ended {sol.status}")
    measure = OccupationMeasure(
        {pair: float(v) for pair, v in zip(lp.pairs, sol.values)})
    return (close_policy(model, decode_policy(measure)),
            measure_cost(model, measure), sol.pivots)


# ---------------------------------------------------------------------------
# occupation measures of explicit policies, and their mixture
# ---------------------------------------------------------------------------

def occupation_measure_of(model: CsspModel, policy: StochasticPolicy) -> OccupationMeasure:
    """Expected visit counts of a closed proper policy from the initial state."""
    if model.is_goal(model.initial):
        return OccupationMeasure({})
    transient = sorted(s for s in envelope(model, policy) if not model.is_goal(s))
    idx, p, _, _ = _policy_matrices(model, policy, transient)
    e0 = np.zeros(len(transient))
    e0[idx[model.initial]] = 1.0
    # visits satisfy v = e0 + p^T v
    visits = solve_linear_system((np.eye(len(transient)) - p).T, e0)
    return OccupationMeasure({(s, a): float(visits[idx[s]] * w)
                              for s in transient
                              for a, w in policy.action_probs(s) if w > 0})


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

    Each distinct policy is priced exactly: one linear solve gives its
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
    measures = [occupation_measure_of(model, p.to_stochastic()) for p in policies]
    costs = np.array([measure_cost(model, x) for x in measures])
    lp = LinearProgram(n_vars=len(policies), sense="min", objective=costs[:, 0])
    for i in range(model.n):
        lp.add_row(costs[:, i + 1], LESS, float(model.bounds[i]))
    lp.add_row(np.ones(len(policies)), EQUAL, 1.0)
    sol = solve_lp(lp)
    if sol.status != OPTIMAL:
        raise ExtractionInfeasible(
            f"no mixture of the {len(policies)} cut policies meets the bounds "
            f"(master LP {sol.status})")
    mixed = {}
    for mu, x in zip(sol.values.tolist(), measures):
        if mu > 0.0:
            for pair, v in x.x.items():
                mixed[pair] = mixed.get(pair, 0.0) + mu * v
    policy = close_policy(model, decode_policy(OccupationMeasure(mixed)))
    return Mixture(policies, costs, sol.values, policy, sol.pivots)
