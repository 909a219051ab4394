"""Heuristic search for scalarised subproblems over vector value functions.

A scalarisation ``lam`` in R^n_{>=0} projects the (n+1)-vector action costs
onto the scalar ``[1 lam] . C(a)``, inducing an unconstrained shortest-path
subproblem.  The solver keeps the full cost vector in the value function so
one search yields both the optimal scalarised value and every component's
expected cost under the found policy.

The search grows a partial problem from the initial state as ILAO* does:
each depth-first pass over the greedy policy expands the unexpanded states
it reaches and follows the pairs it included.  After every pass that does
not stop the search, the dirty set drives a repair of each pair whose
Q-value undercuts the stored value; a pass that expanded nothing first
backs up its states in post-order.  That
repair channel also makes warm restarts after a scalarisation change sound:
every pair is marked dirty and the pairs of expanded states get rechecked.

The search stops at a pass that expands nothing and keeps every state's
greedy action (the solve's deterministic policy) of the pass before the
last sweep, once the pass's Bellman residual over its envelope, read off
the Q vectors it chose from, meets a threshold derived from ``epsilon``, or
once that held policy is certified, which is tried once per held policy:
evaluated exactly, as by ``evaluate_policy``, it is proper and no pair of
its envelope improves on its values (current values off the envelope) by
more than the tie window.
That is the residual test over the same envelope and outside values, made
exact: a proper policy greedy with respect to its own value is optimal
(Bertsekas and Tsitsiklis, Math. OR 16(3), 1991), so a certified ``V(s0)``
is the policy's exact price.

The search runs on the model's flat pair layout (``CsspModel.layout``,
built by the loader): every (state, action) pair is one row of an
``(A, n + 1)`` cost matrix and of zero-padded ``(A, d)`` successor ids and
``(A, 1, d)`` probabilities, and one state's pairs are a contiguous slice.
A pair is only ever addressed by its row id ``offsets[s] + a``: the partial
problem and the dirty set are bool arrays over those ids, and the
layout's ``pred_ids[pred_ptr[t]:pred_ptr[t + 1]]`` are the pairs that reach
state ``t``.
A Q vector is ``cost + matmul(probs, values.take(succ))[:, 0, :]`` over
every pair in the traversal, one state's actions in a backup and the dirty
pairs (gathered by id) in the repair's screen; one pair's, in a backup or
the repair's re-check, is ``cost[i] + probs[i, 0] @ values.take(succ[i])``.
A scalarised Q is ``np.vecdot(Q, w)``, or ``float(w @ q)`` for one pair.

Bit-exactness rule: with outcome lists of at most three successors these
forms give the same bits as the per-action ``cost + probs @
values[successors]`` and ``float(w @ q)``; ``Q @ w`` and ``einsum`` do not.
Wider lists can round differently from the per-action form, but one pair's
Q still has its padded row's bits, so the search's comparisons stay
consistent (``tests/test_search.py`` checks all three).  Bits matter
because a last-bit change flips exact ties, and with them the chosen
actions and the backup counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ImproperPolicy, NoApplicableAction, Nonconvergence
from .heuristics import HeuristicVector
from .model import CsspModel, _ranges, policy_system, policy_values

DEFAULT_EPSILON = 1e-4
DEFAULT_BUDGET = 10 ** 8
_CHANGE_TOL = 1e-12
_TIE_WINDOW = 1e-9   # relative width of the backup tie-break window


def _check_positive(name: str, value: float) -> None:
    if not (np.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive, got {value!r}")


def _check_settings(epsilon: float, budget) -> None:
    _check_positive("epsilon", epsilon)
    if not (budget >= 1 and budget % 1 == 0):
        raise ValueError(f"backup budget must be at least 1 and whole, got {budget!r}")


def as_scalarisation(lam, n: int) -> np.ndarray:
    """Validate and clamp a multiplier vector onto R^n_{>=0}."""
    lam = np.asarray(lam, dtype=float).reshape(-1)
    if lam.shape != (n,):
        raise ValueError(f"scalarisation must have {n} entries, got {lam.shape}")
    if not np.all(np.isfinite(lam)):
        raise ValueError(f"scalarisation entries must be finite, got {lam}")
    return np.maximum(lam, 0.0)


def scalar_weights(lam: np.ndarray) -> np.ndarray:
    return np.concatenate(([1.0], lam))


@dataclass
class VectorValueFunction:
    """Per-state cost vectors plus the partial problem the solver threads through.

    ``touched`` marks states whose values were committed by a search (untouched
    states fall back to the current heuristic).  ``included`` and ``dirty``
    hold one flag per pair of the model's pair layout: ``included`` is the
    partial problem (a state is expanded once one of its pairs is in), and
    ``dirty`` marks the pairs whose Q-vs-V relation needs rechecking.
    """

    values: np.ndarray     # (num_states, n + 1)
    touched: np.ndarray    # bool per state
    included: np.ndarray   # bool per pair
    dirty: np.ndarray      # bool per pair

    def copy(self) -> "VectorValueFunction":
        return VectorValueFunction(self.values.copy(), self.touched.copy(),
                                   self.included.copy(), self.dirty.copy())


def fresh_vvf(model: CsspModel) -> VectorValueFunction:
    pairs = len(model.layout.state)
    return VectorValueFunction(
        np.zeros((model.num_states, model.n + 1)),
        np.zeros(model.num_states, dtype=bool),
        np.zeros(pairs, dtype=bool), np.zeros(pairs, dtype=bool))


@dataclass
class SearchStats:
    backups: int = 0      # states backed up in sweeps + pairs screened (repair, certificate)
    expansions: int = 0


@dataclass
class SearchResult:
    V: VectorValueFunction
    envelope: frozenset
    choice: dict                # state -> greedy action id, over the envelope
    stats: SearchStats
    lam: np.ndarray
    model: CsspModel
    # not a field: the benchmark's tracer (perfbench/spans.py) files each
    # solve's figures under ``search.<mode>``, and every solve is plain
    mode = "plain"


# ---------------------------------------------------------------------------
# primitive operations
# ---------------------------------------------------------------------------

def _state_q(model: CsspModel, values: np.ndarray, w: np.ndarray, s: int):
    """Q vectors of every action of ``s`` and their scalarised values (a list)."""
    pairs = model.layout
    q = pairs.q(values, pairs.offset_list[s], pairs.offset_list[s + 1])
    return q, np.vecdot(q, w).tolist()


def _lexmin(q: np.ndarray, rows):
    """The row with the lexicographically smallest Q vector, then the smallest index."""
    return min(rows, key=lambda i: (tuple(q[i]), i))


def _greedy(q: np.ndarray, scal: list, actions, epsilon: float) -> int:
    """Tie-broken argmin of the scalarised Q-values over ``actions``.

    Actions whose scalarised Q ties the minimum are resolved to the
    lexicographically smallest Q vector, then the smallest action id, which
    keeps every component converging instead of cycling between tied actions.
    The tie window is machine-scale (capped by ``epsilon``): it only needs to
    absorb floating-point flapping on genuine ties, and anything wider would
    contaminate the returned values with epsilon-sized selection error.
    """
    m = min(scal[a] for a in actions)
    window = min(epsilon, _TIE_WINDOW * (1.0 + abs(m)))
    tied = [a for a in actions if scal[a] <= m + window]
    return tied[0] if len(tied) == 1 else _lexmin(q, tied)


def warm_restart(result: SearchResult, lam) -> VectorValueFunction:
    """Prepare a solved value function for reuse at the scalarisation ``lam``.

    If any state's scalar projection moved from ``result.lam``, every pair
    is marked dirty, so the next solve rechecks admissibility and repairs
    any value the projection change invalidated.
    """
    V = result.V.copy()
    delta = (as_scalarisation(lam, result.model.n) - result.lam) @ V.values[:, 1:].T
    # all pairs: a strict superset of those whose Q-vs-V relation the change
    # can invalidate.  The repair pass drops the unexpanded states' pairs,
    # screens the rest in one vectorised check, and runs only the few that
    # pass it through the sequential test
    V.dirty[:] = (np.abs(delta) > _CHANGE_TOL).any()
    return V


class _Solve:
    """One scalarised solve over a (possibly warm) value function."""

    def __init__(self, model, lam, V, h, epsilon, budget):
        self.model = model
        self.pairs = model.layout
        self.lam = lam
        self.w = scalar_weights(lam)
        self.V = V
        self.eps = epsilon
        self.budget = budget
        self.stats = SearchStats()
        costs = np.vecdot(self.pairs.cost, self.w)
        self.c_min = float(costs.min()) if costs.size else 1.0
        # untouched states take the heuristic for this scalarisation
        fresh = ~V.touched
        if fresh.any():
            V.values[fresh] = h.values[fresh]
        for g in model.goals:
            V.values[g] = 0.0
            V.touched[g] = True

    # -- helpers ------------------------------------------------------------

    def _spend(self, k: int):
        self.stats.backups += k
        if self.stats.backups > self.budget:
            raise Nonconvergence(f"backup budget {self.budget} exceeded")

    def _mark(self, states: np.ndarray):
        """Touch ``states``, in any order, and dirty the pairs that reach them and
        their own pairs not yet included, which a raised value can make improve."""
        V, pairs = self.V, self.pairs
        V.touched[states] = True
        V.dirty[pairs.pred_ids.take(_ranges(pairs.pred_ptr, states))] = True
        own = _ranges(pairs.offsets, states)
        V.dirty[own] |= ~V.included.take(own)

    # -- core passes ----------------------------------------------------------

    def _dfs(self):
        """ILAO*-style post-order traversal of the current greedy policy.

        Values do not change during a pass, so every pair's Q is computed
        once, in one op, and every choice reads it: the minimum over each
        state's included pairs in one ``reduceat`` (over all its pairs at a
        tip, a state with none included), with ``_greedy``'s tie window on
        top, and only a state left with several tied pairs goes through the
        Python lexicographic tie-break.  At each tip it reaches, the pass
        includes the chosen pair, marks the tip's pairs dirty and follows it.
        Returns the post-order, the expanded states (ascending), every
        reached state's choice, the reached set and the Bellman residual
        ``max |Q(s, choice(s)) - V(s)|`` over the reached states.

        Guarantee: if the repair after the pass changes no value, the pass
        expands and includes what stopping at the fringe and repairing level
        by level would, with the same counters.  That holds for a heuristic
        consistent after scalarisation (``Q(s, a) >= h(s)`` within the tie
        window at every fresh tip), as the zero, ideal-point and lambda
        heuristics are.  Not covered: an inconsistent heuristic, whose repair
        can change a choice above tips that this pass already expanded.
        """
        pairs, V = self.pairs, self.V
        q = pairs.q(V.values)
        scal = np.vecdot(q, self.w)
        # a state chooses over its included pairs, a tip over all its pairs;
        # the trailing entries keep every state's offset a valid index, also
        # for states without actions at the end of the layout
        tip = ~np.logical_or.reduceat(np.append(V.included, False), pairs.offsets[:-1])
        mask = V.included | tip[pairs.state]
        m = np.minimum.reduceat(np.append(np.where(mask, scal, np.inf), np.inf),
                                pairs.offsets[:-1])
        bound = m + np.minimum(self.eps, _TIE_WINDOW * (1.0 + np.abs(m)))
        tied, tip = (mask & (scal <= bound[pairs.state])).tolist(), tip.tolist()
        offsets, successors, goal = pairs.offset_list, pairs.successors, pairs.goal_mask.tolist()
        order, expanded, choice, ids = [], [], {}, []
        seen = {self.model.initial}
        stack = [(self.model.initial, None)]
        while stack:
            s, it = stack.pop()
            if it is None:
                if goal[s]:
                    continue
                lo, hi = offsets[s], offsets[s + 1]
                if lo == hi:
                    raise NoApplicableAction(
                        f"state {self.model.state_names[s]!r} has no applicable "
                        "action; apply the finite-penalty transform first")
                rows = [i for i in range(lo, hi) if tied[i]]
                i = rows[0] if len(rows) == 1 else _lexmin(q, rows)
                if tip[s]:
                    V.included[i] = True
                    V.dirty[lo:hi] = True
                    expanded.append(s)
                choice[s] = i - lo
                ids.append(i)
                stack.append((s, iter(successors[i])))
            else:
                for t in it:
                    if t not in seen:
                        seen.add(t)
                        stack += ((s, it), (t, None))
                        break
                else:
                    order.append(s)
        self.stats.expansions += len(expanded)
        residual = float(np.abs(q[ids] - V.values[list(choice)]).max(initial=0.0))
        return order, sorted(expanded), choice, seen, residual

    def _backup(self, s):
        lo, hi = self.pairs.offset_list[s], self.pairs.offset_list[s + 1]
        acts = self.V.included[lo:hi].nonzero()[0].tolist()
        if len(acts) == 1:
            q = self.pairs.pair_q(self.V.values, lo + acts[0])
        else:
            qs, scal = _state_q(self.model, self.V.values, self.w, s)
            q = qs[_greedy(qs, scal, acts, self.eps)]
        if max(map(abs, (self.V.values[s] - q).tolist())) > _CHANGE_TOL:
            self.V.values[s] = q

    def _improving(self, idx: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Bool per pair of ``idx``: its scalarised Q at ``values`` undercuts
        its state's scalarised value by more than the tie window."""
        pairs = self.pairs
        scal_q = np.vecdot(pairs.cost.take(idx, 0) + np.matmul(pairs.probs.take(idx, 0),
            values.take(pairs.succ.take(idx, 0), 0))[:, 0, :], self.w)
        scal_v = np.vecdot(values.take(pairs.state.take(idx), axis=0), self.w)
        # the tie window _greedy uses: anything narrower lets a self-loop
        # at a kink flip V(s) between two tied Q vectors forever
        window = np.minimum(self.eps, _TIE_WINDOW * (1.0 + np.abs(scal_v)))
        return scal_q < scal_v - window

    def _repair(self) -> bool:
        """Drive the dirty set to a fixed point; returns True if V changed.

        Each round takes the dirty pairs of expanded states in ascending id,
        clears the dirty set (the pairs of unexpanded states are dropped;
        goals are never expanded) and screens the taken pairs all at once:
        one gather gives every Q vector, and the improvement test runs on
        the whole batch.  Only the pairs that pass go through the sequential
        test, in ascending id and at the current values, since earlier pairs
        of the round may have changed them.  Past its start a round reads no
        dirty flag, so the states it changed are marked once, after it.  A
        screened-out pair can start to pass only after a value it reads
        changes, and that change's mark makes it dirty for the next round, so
        the fixed point is the one a pair-by-pair pass reaches.  Every
        screened pair counts as a backup.
        """
        V, w, pairs = self.V, self.w, self.pairs
        changed = False
        # pairs of expanded states: a repair includes no other, so this holds
        live = np.bincount(pairs.state, V.included, self.model.num_states)[pairs.state] > 0
        while V.dirty.any():
            idx = (V.dirty & live).nonzero()[0]
            V.dirty[:] = False
            self._spend(len(idx))
            moved = []
            for i in idx[self._improving(idx, V.values)].tolist():
                s = int(pairs.state[i])
                q = pairs.pair_q(V.values, i)
                scal_v = float(w @ V.values[s])
                if float(w @ q) < scal_v - min(self.eps, _TIE_WINDOW * (1.0 + abs(scal_v))):
                    V.included[i] = True
                    V.values[s] = q
                    moved.append(s)
            if moved:
                self._mark(np.array(moved, dtype=np.intp))
                changed = True
        return changed

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

    def _certify(self, choice: dict) -> bool:
        """Write the exact values of ``choice`` if it is proper and unimprovable.

        The values come from ``evaluate_policy``'s solve; every pair of every
        envelope state is screened with the repair's tie window (and counts
        as a backup), reading current values off the envelope.  Written values
        get a backup's bookkeeping; a rejection changes nothing.
        """
        pairs, V = self.pairs, self.V
        ids = pairs.offsets[list(choice)] + np.fromiter(choice.values(), int, len(choice))
        system = policy_system(self.model, ids, np.ones(len(ids)))
        try:
            exact = policy_values(self.model, system)
        except ImproperPolicy:
            return False
        values = V.values.copy()
        values[system.states] = exact
        idx = np.isin(pairs.state, system.states).nonzero()[0]
        self._spend(len(idx))
        if self._improving(idx, values).any():
            return False
        moved = (np.abs(values - V.values).max(axis=1) > _CHANGE_TOL).nonzero()[0]
        V.values[system.states] = exact
        self._mark(moved)
        return True

    # -- main loop -------------------------------------------------------------

    def run(self) -> SearchResult:
        """Expanding passes, each with a repair, then backup sweeps to convergence.

        A pass that expands nothing stops the solve if it holds the policy
        of the pass before the last sweep and either its residual meets
        ``_termination_residual`` or, once per held policy, ``_certify``
        passes; any other such pass is followed by a sweep and a repair.
        The certificate is sound where the residual test is: it reads the
        same envelope and outside values, with the held policy's exact
        values in place of epsilon-consistent ones.
        """
        self._repair()
        # last: the choice of the pass before the last sweep (None after an
        # expansion); rejected: last's certificate was tried and failed
        last, rejected = None, False
        while True:
            order, expanded, choice, env, residual = self._dfs()
            if expanded:
                self._repair()
                last = None
                continue
            held = choice == last
            if held and (residual <= self._termination_residual()
                         or (not rejected and self._certify(choice))):
                return SearchResult(self.V, frozenset(env), choice, self.stats,
                                    self.lam.copy(), self.model)
            rejected = held
            # the sweep reads no mark and includes no pair: mark after it
            self._spend(len(order))
            before = self.V.values[order]
            for s in order:
                self._backup(s)
            moved = np.abs(self.V.values[order] - before).max(axis=1) > _CHANGE_TOL
            self._mark(np.array(order, dtype=np.intp)[moved])
            self._repair()
            last = choice


def solve_lambda_ssp(model: CsspModel, lam, V_init: Optional[VectorValueFunction],
                     h: HeuristicVector, epsilon: float = DEFAULT_EPSILON,
                     budget: int = DEFAULT_BUDGET) -> SearchResult:
    """Solve the scalarised subproblem induced by ``lam``.

    ``V_init`` may come from :func:`warm_restart`; pass None for a cold start.
    The returned value function is epsilon-consistent over the greedy
    policy's envelope, ``V(s0)`` estimates that policy's per-component
    costs (exactly, if certified), and ``choice`` is the policy itself.
    """
    _check_settings(epsilon, budget)
    lam = as_scalarisation(lam, model.n)
    V = V_init if V_init is not None else fresh_vvf(model)
    return _Solve(model, lam, V, h, epsilon, budget).run()

