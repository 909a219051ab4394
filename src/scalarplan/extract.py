"""Stochastic-policy extraction and the exact occupation-measure oracle.

An occupation measure assigns each (state, action) pair its expected number
of applications; a unit of flow enters the initial state and must all reach
the goals.  Extraction builds a pure feasibility system over the support of
the tied-greedy policies: flow conservation, the primary cost pinned to the
value the multiplier search certified, bound constraints for slack
multipliers and tight equalities for active ones.  Any solution decodes into
an optimal feasible policy.  When the support is one proper deterministic
policy, its flow rows pin the flow to that policy's own occupation measure,
so the measure is checked against the rows instead of being searched for by
the simplex.

``flat_dual_solve`` instead optimises the full occupation-measure program
over every reachable state; it is the desk-scale exact oracle the rest of the
test suite validates against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .errors import (
    EmptySupport,
    ExtractionInfeasible,
    Infeasible,
    NumericalBreakdown,
    OpenPolicy,
    SingularMatrix,
)
from .linalg import (
    EQUAL,
    GREATER,
    INFEASIBLE,
    LESS,
    OPTIMAL,
    LinearProgram,
    LpSolution,
    check_lp_solution,
    solve_linear_system,
    solve_lp,
)
from .model import (
    CsspModel,
    DeterministicPolicy,
    StochasticPolicy,
    _policy_matrices,
    envelope,
    reachable_states,
)
from .search import DEFAULT_EPSILON, SearchResult

LAMBDA_ACTIVE_TOL = 1e-9   # multiplier entries above this count as active
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


# ---------------------------------------------------------------------------
# complementary-slackness extraction
# ---------------------------------------------------------------------------

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


def build_xpi_system(model: CsspModel, lam_star, v_scalar, support: Iterable,
                     epsilon: float = DEFAULT_EPSILON,
                     band: Optional[float] = None,
                     active_tol: float = LAMBDA_ACTIVE_TOL) -> LinearProgram:
    """Feasibility system whose solutions decode into optimal policies.

    ``v_scalar`` maps state ids to the scalarised optimal values (only the
    initial state's entry is used).  ``support`` is the union of tied-greedy
    supports.  The primary-cost equality carries consistency noise from the
    subproblem solver, so it is installed as a pair of inequalities with
    half-width ``band`` (default: n * epsilon + 1e-7).  Multiplier entries at
    or below ``active_tol`` keep their bound as an inequality; entries above
    it pin the bound to equality.  Relaxing a doubtful equality is always
    safe: the primary-cost pin alone forces optimality, the equalities only
    sharpen degenerate systems.
    """
    pairs = sorted(set((int(s), int(a)) for s, a in support))
    if not pairs:
        raise EmptySupport("extraction needs at least one support pair")
    lam_star = np.asarray(lam_star, dtype=float)
    lp = LinearProgram(n_vars=len(pairs), sense=None)
    touched = {s for s, _ in pairs}
    touched.update(int(t) for s, a in pairs for t in model.actions[s][a].successors)
    for row in _flow_rows(model, pairs, touched):
        lp.add_row(*row)

    v0 = v_scalar[model.initial] if not model.is_goal(model.initial) else 0.0
    target = float(v0) - float(lam_star @ model.bounds)
    if band is None:
        band = model.n * epsilon + 1e-7
    primary = np.array([model.actions[s][a].cost[0] for s, a in pairs])
    lp.add_row(primary, LESS, target + band)
    lp.add_row(primary, GREATER, target - band)

    for i in range(model.n):
        row = np.array([model.actions[s][a].cost[i + 1] for s, a in pairs])
        if lam_star[i] > active_tol:
            lp.add_row(row, EQUAL, float(model.bounds[i]))
        else:
            lp.add_row(row, LESS, float(model.bounds[i]))
    lp.pairs = pairs
    return lp


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


def _deterministic_measure(model: CsspModel, lp: LinearProgram, tied: dict):
    """Occupation measure of the one tied-greedy policy, if it solves ``lp``.

    Returns None when the policy is open or its visit system singular, or
    when its flow breaks any row of ``lp`` by more than the tolerance a
    simplex answer is held to.
    """
    policy = StochasticPolicy({s: ((acts[0], 1.0),) for s, acts in tied.items()})
    try:
        x = occupation_measure_of(model, policy).x
    except (SingularMatrix, OpenPolicy):
        return None
    values = np.array([x.get(pair, 0.0) for pair in lp.pairs])
    if check_lp_solution(lp, LpSolution(OPTIMAL, values)) > lp.feasibility_tol:
        return None
    return OccupationMeasure(dict(zip(lp.pairs, values.tolist())))


def extract_opt_policy(model: CsspModel, lam_star, search_result: SearchResult,
                       epsilon: float = DEFAULT_EPSILON,
                       band: Optional[float] = None,
                       active_tol: float = LAMBDA_ACTIVE_TOL):
    """Decode an optimal policy from a strong-mode search result.

    When every tied set is a singleton, the one tied-greedy policy's
    occupation measure is checked against the complementary-slackness rows
    and, if it satisfies them, decoded without an LP.  Otherwise, or if the
    check fails, the system goes to the simplex.

    Returns (policy, lp pivots); the pivots are 0 exactly when no LP ran,
    since the simplex needs at least one pivot to clear the initial state's
    unit inflow.  Raises ExtractionInfeasible, carrying the pivots spent,
    when the complementary-slackness system has no solution, which signals a
    suboptimal multiplier or a too-coarse epsilon.
    """
    if search_result.tied is None:
        raise ValueError("extraction needs a strong-mode search result")
    lam_star = np.asarray(lam_star, dtype=float)
    if model.is_goal(model.initial):
        return StochasticPolicy({}), 0
    tied = search_result.tied
    support = [(s, a) for s, acts in tied.items() for a in acts]
    w = np.concatenate(([1.0], lam_star))
    v_scalar = search_result.V.values @ w
    lp = build_xpi_system(model, lam_star, v_scalar, support,
                          epsilon=epsilon, band=band, active_tol=active_tol)
    if all(len(acts) == 1 for acts in tied.values()):
        measure = _deterministic_measure(model, lp, tied)
        if measure is not None:
            return close_policy(model, decode_policy(measure)), 0
    sol = solve_lp(lp)
    if sol.status != OPTIMAL:
        raise ExtractionInfeasible(
            f"complementary-slackness system is {sol.status}", sol.pivots)
    measure = OccupationMeasure(
        {pair: float(v) for pair, v in zip(lp.pairs, sol.values)})
    return close_policy(model, decode_policy(measure)), sol.pivots


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
# occupation measures of explicit policies, and flow decomposition
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


def flow_decomposition(model: CsspModel, measure: OccupationMeasure,
                       tol: float = 1e-6):
    """Split an occupation measure into weighted deterministic constituents.

    Repeatedly peels the deterministic policy that follows the largest
    remaining flow out of each state, scaled by the bottleneck ratio, until
    the residual weight drops below ``tol``.  Weights are renormalised to
    sum to 1.
    """
    remaining = {k: float(v) for k, v in measure.x.items() if v > FLOW_TOL}
    parts = []
    total = 1.0
    for _ in range(len(remaining) + 5):
        if total <= tol or not remaining:
            break
        mapping = {}
        stack = [model.initial]
        seen = set()
        dead = False
        while stack:
            s = stack.pop()
            if s in seen or model.is_goal(s):
                continue
            seen.add(s)
            cands = [(v, a) for (s2, a), v in remaining.items()
                     if s2 == s and v > FLOW_TOL]
            if not cands:
                dead = True
                break
            _, a = max(cands)
            mapping[s] = a
            for t in model.actions[s][a].successors:
                stack.append(int(t))
        if dead:
            break
        policy = DeterministicPolicy(mapping)
        part = occupation_measure_of(model, policy.to_stochastic())
        mu = total
        for pair, v in part.x.items():
            if v > FLOW_TOL:
                mu = min(mu, remaining.get(pair, 0.0) / v)
        if mu <= 0:
            break
        parts.append((mu, policy))
        for pair, v in part.x.items():
            if pair in remaining:
                remaining[pair] = max(0.0, remaining[pair] - mu * v)
                if remaining[pair] <= FLOW_TOL:
                    del remaining[pair]
        total -= mu
    norm = sum(mu for mu, _ in parts)
    return [(mu / norm, pol) for mu, pol in parts]
