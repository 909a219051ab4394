"""Heuristic search for scalarised subproblems over vector value functions.

A scalarisation ``lam`` in R^n_{>=0} projects the (n+1)-vector action costs
onto the scalar ``[1 lam] . C(a)``, inducing an unconstrained shortest-path
subproblem.  The solver keeps the full cost vector in the value function so
one search yields both the optimal scalarised value and every component's
expected cost under the found policy.

The search grows a partial problem from the initial state, backs up over the
current greedy envelope, and repairs any (state, action) pair whose Q-value
undercuts the stored value via the dirty set ``gamma``.  That repair channel
is also what makes warm restarts after a scalarisation change sound: every
known pair re-enters ``gamma`` and gets rechecked.

Plain mode stops when the greedy envelope is consistent to ``epsilon``;
strong mode additionally chases every action whose scalarised Q-value ties
the minimum to within ``tie_epsilon``, so the result captures the union of
all tied-greedy policies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import NoApplicableAction, Nonconvergence
from .heuristics import HeuristicVector
from .model import CsspModel

PLAIN, STRONG = "plain", "strong"

DEFAULT_EPSILON = 1e-4
DEFAULT_BUDGET = 10 ** 8
_CHANGE_TOL = 1e-12
_TIE_WINDOW = 1e-9   # relative width of the backup tie-break window


def as_scalarisation(lam, n: int) -> np.ndarray:
    """Validate and clamp a multiplier vector onto R^n_{>=0}."""
    lam = np.asarray(lam, dtype=float).reshape(-1)
    if lam.shape != (n,):
        raise ValueError(f"scalarisation must have {n} entries, got {lam.shape}")
    return np.maximum(lam, 0.0)


def scalar_weights(lam: np.ndarray) -> np.ndarray:
    return np.concatenate(([1.0], lam))


@dataclass
class VectorValueFunction:
    """Per-state cost vectors plus the bookkeeping the solver threads through.

    ``touched`` marks states whose values were committed by a search (untouched
    states fall back to the current heuristic).  ``gamma`` is the dirty set of
    (state, action) pairs whose Q-vs-V relation needs rechecking.  ``included``
    is the partial problem: per-state set of admitted action ids.
    """

    values: np.ndarray                  # (num_states, n + 1)
    touched: np.ndarray                 # bool per state
    gamma: set = field(default_factory=set)
    included: dict = field(default_factory=dict)

    def copy(self) -> "VectorValueFunction":
        return VectorValueFunction(
            self.values.copy(), self.touched.copy(), set(self.gamma),
            {s: set(a) for s, a in self.included.items()})


def fresh_vvf(model: CsspModel) -> VectorValueFunction:
    return VectorValueFunction(
        np.zeros((model.num_states, model.n + 1)),
        np.zeros(model.num_states, dtype=bool))


@dataclass
class SearchStats:
    backups: int = 0
    expansions: int = 0


@dataclass
class SearchResult:
    V: VectorValueFunction
    envelope: frozenset
    tied: Optional[dict]        # state -> tuple of tied action ids (strong mode)
    stats: SearchStats
    lam: np.ndarray
    mode: str
    model: CsspModel

    def scalar_value(self, s: int) -> float:
        return float(scalar_weights(self.lam) @ self.V.values[s])


# ---------------------------------------------------------------------------
# primitive operations
# ---------------------------------------------------------------------------

def q_vector(model: CsspModel, values: np.ndarray, s: int, a: int) -> np.ndarray:
    act = model.actions[s][a]
    return act.cost + act.probs @ values[act.successors]


def _choose(model, values, w, s, actions, epsilon):
    """Tie-broken argmin of the scalarised Q-values over ``actions``.

    Actions whose scalarised Q ties the minimum are resolved to the
    lexicographically smallest Q vector, then the smallest action id, which
    keeps every component converging instead of cycling between tied actions.
    The tie window is machine-scale (capped by ``epsilon``): it only needs to
    absorb floating-point flapping on genuine ties, and anything wider would
    contaminate the returned values with epsilon-sized selection error.
    Returns (action id, Q vector, scalarised Q list).
    """
    qs = [q_vector(model, values, s, a) for a in actions]
    scal = [float(w @ q) for q in qs]
    m = min(scal)
    window = min(epsilon, _TIE_WINDOW * (1.0 + abs(m)))
    best = None
    for i, a in enumerate(actions):
        if scal[i] <= m + window:
            key = (tuple(qs[i]), a)
            if best is None or key < best[0]:
                best = (key, a, qs[i])
    return best[1], best[2], scal


def lambda_bellman_backup(model: CsspModel, lam, V: VectorValueFunction,
                          s: int, epsilon: float = DEFAULT_EPSILON):
    """Vector Bellman backup at ``s``: V(s) <- Q(s, a_min).

    ``a_min`` minimises the scalarised Q-value; ties within ``epsilon`` break
    lexicographically on the Q vector, then on action id, which keeps every
    component converging instead of cycling between near-tied actions.
    Returns (new value vector, chosen action id, component-wise residual).
    """
    lam = as_scalarisation(lam, model.n)
    if model.is_goal(s):
        return V.values[s].copy(), None, 0.0
    actions = range(len(model.actions[s]))
    if not actions:
        raise NoApplicableAction(
            f"state {model.state_names[s]!r} has no applicable action")
    w = scalar_weights(lam)
    a, q, _ = _choose(model, V.values, w, s, list(actions), epsilon)
    residual = float(np.max(np.abs(V.values[s] - q)))
    V.values[s] = q
    V.touched[s] = True
    return q.copy(), a, residual


@dataclass
class EnvelopeResult:
    states: frozenset
    open_states: tuple   # states the search never valued; drives expansion

    @property
    def open(self) -> bool:
        return bool(self.open_states)


def greedy_envelope(model: CsspModel, V: VectorValueFunction, lam,
                    epsilon: float = DEFAULT_EPSILON,
                    mode: str = PLAIN) -> EnvelopeResult:
    """Envelope of the tie-broken greedy policy (or of all tied policies).

    Works over the full action sets.  A reached state without a committed
    value is reported in ``open_states`` rather than treated as an error.
    """
    lam = as_scalarisation(lam, model.n)
    w = scalar_weights(lam)
    seen = {model.initial}
    stack = [model.initial]
    open_states = []
    while stack:
        s = stack.pop()
        if model.is_goal(s):
            continue
        if not V.touched[s]:
            open_states.append(s)
            continue
        actions = list(range(len(model.actions[s])))
        if not actions:
            raise NoApplicableAction(
                f"state {model.state_names[s]!r} has no applicable action")
        if mode == PLAIN:
            a, _, _ = _choose(model, V.values, w, s, actions, epsilon)
            chosen = [a]
        else:
            qs = [float(w @ q_vector(model, V.values, s, a)) for a in actions]
            m = min(qs)
            chosen = [a for a, q in zip(actions, qs) if q <= m + epsilon]
        for a in chosen:
            for t in model.actions[s][a].successors:
                t = int(t)
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
    return EnvelopeResult(frozenset(seen), tuple(sorted(open_states)))


def warm_restart(result: SearchResult, lam_old, lam_new) -> VectorValueFunction:
    """Prepare a solved value function for reuse at a new scalarisation.

    Every known (state, action) pair whose state's scalar projection moved
    re-enters the dirty set, so the next solve rechecks admissibility and
    repairs any value the projection change invalidated.
    """
    model_n = result.V.values.shape[1] - 1
    lam_old = as_scalarisation(lam_old, model_n)
    lam_new = as_scalarisation(lam_new, model_n)
    V = result.V.copy()
    V.gamma = set()
    delta = (lam_new - lam_old) @ V.values[:, 1:].T
    if not (np.abs(delta) > _CHANGE_TOL).any():
        return V
    # mark every applicable pair of every expanded state: a strict superset of
    # the pairs whose Q-vs-V relation the projection change can invalidate,
    # and the repair pass is cheap at desk scale
    for s in V.included:
        V.gamma.update((s, a) for a in range(len(result.model.actions[s])))
    return V


class _Solve:
    """One scalarised solve over a (possibly warm) value function."""

    def __init__(self, model, lam, V, h, epsilon, tie_epsilon, mode, budget):
        self.model = model
        self.lam = lam
        self.w = scalar_weights(lam)
        self.V = V
        self.h = h
        self.eps = epsilon
        self.tie_eps = tie_epsilon
        self.mode = mode
        self.budget = budget
        self.stats = SearchStats()
        costs = [float(self.w @ a.cost) for acts in model.actions for a in acts]
        self.c_min = min(costs) if costs else 1.0
        # untouched states take the heuristic for this scalarisation
        fresh = ~V.touched
        if fresh.any():
            V.values[fresh] = h.values[fresh]
        for g in model.goals:
            V.values[g] = 0.0
            V.touched[g] = True

    # -- helpers ------------------------------------------------------------

    def _spend(self, k: int = 1):
        self.stats.backups += k
        if self.stats.backups > self.budget:
            raise Nonconvergence(
                f"backup budget {self.budget} exceeded")

    def _all_action_ids(self, s):
        return range(len(self.model.actions[s]))

    def _enqueue_state_pairs(self, s):
        self.V.gamma.update((s, a) for a in self._all_action_ids(s))

    def _enqueue_preds(self, s):
        for p, a in self.model.predecessors()[s]:
            if p in self.V.included:
                self.V.gamma.add((p, a))

    def _on_value_change(self, s):
        self._enqueue_preds(s)
        # a raised value can turn the state's own missing actions into improvements
        self.V.gamma.update(
            (s, a) for a in self._all_action_ids(s)
            if a not in self.V.included.get(s, ()))

    # -- core passes ----------------------------------------------------------

    def _expand(self, s):
        actions = list(self._all_action_ids(s))
        if not actions:
            raise NoApplicableAction(
                f"state {self.model.state_names[s]!r} has no applicable action; "
                "apply the finite-penalty transform first")
        a, _, _ = _choose(self.model, self.V.values, self.w, s, actions, self.eps)
        self.V.included.setdefault(s, set()).add(a)
        self._enqueue_state_pairs(s)
        self.stats.expansions += 1

    def _dfs(self):
        """Post-order traversal of the current (tied-)greedy partial policy."""
        model, V, w = self.model, self.V, self.w
        order, fringes = [], []
        seen = {model.initial}
        stack = [(model.initial, None)]
        choice = {}
        while stack:
            s, it = stack.pop()
            if it is None:
                if model.is_goal(s):
                    continue
                acts = sorted(V.included.get(s, ()))
                if not acts:
                    fringes.append(s)
                    continue
                if self.mode == PLAIN:
                    a, _, _ = _choose(model, V.values, w, s, acts, self.eps)
                    chosen = (a,)
                else:
                    qs = [float(w @ q_vector(model, V.values, s, a)) for a in acts]
                    m = min(qs)
                    chosen = tuple(a for a, q in zip(acts, qs) if q <= m + self.tie_eps)
                choice[s] = chosen
                succs = []
                for a in chosen:
                    for t in self.model.actions[s][a].successors:
                        succs.append(int(t))
                stack.append((s, iter(succs)))
            else:
                advanced = False
                for t in it:
                    if t not in seen:
                        seen.add(t)
                        stack.append((s, it))
                        stack.append((t, None))
                        advanced = True
                        break
                if not advanced:
                    order.append(s)
        return order, sorted(fringes), choice, seen

    def _backup(self, s) -> float:
        acts = sorted(self.V.included.get(s, ()))
        if not acts:
            return 0.0
        a, q, _ = _choose(self.model, self.V.values, self.w, s, acts, self.eps)
        old = self.V.values[s].copy()
        residual = float(np.max(np.abs(old - q)))
        self._spend()
        if residual > _CHANGE_TOL:
            self.V.values[s] = q
            self.V.touched[s] = True
            self._on_value_change(s)
        return residual

    def _repair(self) -> bool:
        """Drive the dirty set to a fixed point; returns True if V changed."""
        model, V, w = self.model, self.V, self.w
        changed = False
        while V.gamma:
            s, a = V.gamma.pop()
            if model.is_goal(s) or s not in V.included:
                continue
            q = q_vector(model, V.values, s, a)
            self._spend()
            scal_q = float(w @ q)
            scal_v = float(w @ V.values[s])
            if self.mode == STRONG and a not in V.included[s] \
                    and scal_q <= scal_v + self.tie_eps:
                V.included[s].add(a)
                changed = True
            # the tie window _choose uses: anything narrower lets a self-loop
            # at a kink flip V(s) between two tied Q vectors forever
            if scal_q < scal_v - min(self.eps, _TIE_WINDOW * (1.0 + abs(scal_v))):
                V.included[s].add(a)
                V.values[s] = q
                V.touched[s] = True
                self._on_value_change(s)
                changed = True
        return changed

    def _tied_sets(self, states):
        tied = {}
        for s in states:
            if self.model.is_goal(s):
                continue
            actions = list(self._all_action_ids(s))
            qs = [float(self.w @ q_vector(self.model, self.V.values, s, a))
                  for a in actions]
            m = min(qs)
            tied[s] = tuple(a for a, q in zip(actions, qs) if q <= m + self.tie_eps)
        return tied

    def _termination_residual(self) -> float:
        """Residual threshold that keeps the *value* error within epsilon.

        A sup-norm residual r leaves the initial-state value off by up to
        r times the policy's expected step count, which is bounded by the
        scalarised value over the cheapest scalarised action cost.  Dividing
        epsilon by that bound (with a safety factor, floored to protect the
        worst case's runtime) makes the termination criterion honest on
        cyclic instances instead of only on acyclic ones.
        """
        v0 = float(self.w @ self.V.values[self.model.initial])
        steps = max(1.0, v0 / self.c_min)
        return max(self.eps / (2.0 * steps), 1e-3 * self.eps)

    # -- main loop -------------------------------------------------------------

    def run(self) -> SearchResult:
        model, V = self.model, self.V
        if model.initial not in V.included and not model.is_goal(model.initial):
            self._expand(model.initial)
        self._repair()
        prev_signature = None
        while True:
            order, fringes, choice, env = self._dfs()
            if fringes:
                for f in fringes:
                    self._expand(f)
                self._repair()
                continue
            residual = 0.0
            for s in order:
                residual = max(residual, self._backup(s))
            repaired = self._repair()
            if self.mode == PLAIN:
                signature = tuple(sorted((s, c[0]) for s, c in choice.items()))
            else:
                signature = tuple(sorted(self._tied_sets(env).items()))
            if residual <= self._termination_residual() and not repaired \
                    and signature == prev_signature:
                tied = self._tied_sets(env) if self.mode == STRONG else None
                return SearchResult(V, frozenset(env), tied, self.stats,
                                    self.lam.copy(), self.mode, model)
            prev_signature = signature


def solve_lambda_ssp(model: CsspModel, lam, V_init: Optional[VectorValueFunction],
                     h: HeuristicVector, epsilon: float = DEFAULT_EPSILON,
                     mode: str = PLAIN, tie_epsilon: Optional[float] = None,
                     budget: int = DEFAULT_BUDGET) -> SearchResult:
    """Solve the scalarised subproblem induced by ``lam``.

    ``V_init`` may come from :func:`warm_restart`; pass None for a cold start.
    In plain mode the returned value function is epsilon-consistent over one
    greedy policy's envelope and ``V(s0)`` estimates that policy's per-component
    costs.  In strong mode the residual bound holds over the union of all
    tied-greedy envelopes and the tied action sets are returned.
    """
    if mode not in (PLAIN, STRONG):
        raise ValueError(f"unknown mode {mode!r}")
    lam = as_scalarisation(lam, model.n)
    V = V_init if V_init is not None else fresh_vvf(model)
    tie_epsilon = epsilon if tie_epsilon is None else tie_epsilon
    solve = _Solve(model, lam, V, h, epsilon, tie_epsilon, mode, budget)
    return solve.run()


def bellman_residual(model: CsspModel, V: VectorValueFunction, lam, s: int,
                     epsilon: float = DEFAULT_EPSILON) -> float:
    """Residual of one backup at ``s`` without mutating the value function."""
    if model.is_goal(s):
        return 0.0
    lam = as_scalarisation(lam, model.n)
    w = scalar_weights(lam)
    actions = list(range(len(model.actions[s])))
    _, q, _ = _choose(model, V.values, w, s, actions, epsilon)
    return float(np.max(np.abs(V.values[s] - q)))
