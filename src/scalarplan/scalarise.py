"""Outer optimisation over the Lagrangian multiplier vector.

``L(lam)`` is the optimal policy cost of the scalarised subproblem plus the
constant terminal term ``-lam . bounds``.  Plotted over all multipliers it is
piecewise linear and concave, so each solved subproblem hands back both the
value and a subgradient, that is, a cut ``L(x) <= L + g . (x - lam)``.  The
maximiser is found by Kelley's cutting-plane method: a small LP maximises
the envelope of every cut recorded so far, the subproblem is solved at its
maximiser, and the round whose value comes within ``eta`` of the envelope
certifies its multiplier, with the envelope's maximum as the upper end of
the dual bracket.  A multiplier certified on the box's cap
``MULTIPLIER_CAP`` is returned like any other; ``solve_cssp`` judges it.

``LambdaOracle`` solves the subproblem for every multiplier, each solve warm
from the last, and keeps one ``LagrangianSample`` (``lam``, ``L``, ``g`` and
the solve's greedy deterministic policy) per evaluation; the search, the
surface sampler and the solver's policy mixture read its samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import Nonconvergence
from .heuristics import LAMBDA_SCALARISED, HeuristicVector, make_heuristic
from .linalg import LinearProgram, solve_lp
from .model import CsspModel, DeterministicPolicy
from .search import (
    DEFAULT_BUDGET,
    DEFAULT_EPSILON,
    SearchResult,
    VectorValueFunction,
    _check_positive,
    _check_settings,
    as_scalarisation,
    scalar_weights,
    solve_lambda_ssp,
    warm_restart,
)

DEFAULT_ETA = 1e-4
MULTIPLIER_CAP = 1e6       # the master searches the box 0 <= lam <= MULTIPLIER_CAP


@dataclass
class LagrangianSample:
    """One oracle evaluation, which is also the cut ``L(x) <= L + g . (x - lam)``.

    ``policy`` is the solve's greedy deterministic policy, whose estimated
    costs gave ``L`` and ``g``.
    """

    lam: np.ndarray
    L: float
    g: np.ndarray
    policy: DeterministicPolicy


class LambdaOracle:
    """Evaluates ``L`` and a subgradient per multiplier, warm-starting each solve.

    The subgradient comes from the tie-broken optimal policy of the solved
    subproblem: component i is that policy's i-th expected cost minus its
    bound.  At kinks the policy is non-unique; the tie-broken policy's
    subgradient is the one reported.  Every evaluation is also recorded in
    ``cuts``, in order: each sample is a supporting hyperplane of ``L``,
    and the cutting-plane master maximises their envelope.  A lambda
    heuristic is rebuilt for each multiplier; any other ``h`` serves every
    solve.  ``epsilon`` must be finite and positive, ``budget`` whole and
    at least 1 (ValueError).
    """

    def __init__(self, model: CsspModel, h: HeuristicVector,
                 epsilon: float = DEFAULT_EPSILON, budget: int = DEFAULT_BUDGET):
        _check_settings(epsilon, budget)
        self.model = model
        self.h = h
        self.epsilon = epsilon
        self.budget = budget
        self.backups = 0
        self.expansions = 0
        self.cuts = []
        self._last: Optional[SearchResult] = None   # the next solve warm-starts here

    def heuristic_for(self, lam) -> HeuristicVector:
        if self.h.kind != LAMBDA_SCALARISED:
            return self.h
        return make_heuristic(self.model, LAMBDA_SCALARISED, lam)

    def warm_start(self, lam) -> Optional[VectorValueFunction]:
        """The last solve's value function prepared for a solve at ``lam``.

        None when there is no solve to start from.
        """
        if self._last is None:
            return None
        return warm_restart(self._last, lam)

    def eval(self, lam) -> LagrangianSample:
        lam = as_scalarisation(lam, self.model.n)
        result = solve_lambda_ssp(self.model, lam, self.warm_start(lam),
                                  self.heuristic_for(lam),
                                  epsilon=self.epsilon, budget=self.budget)
        self.backups += result.stats.backups
        self.expansions += result.stats.expansions
        v0 = result.V.values[self.model.initial]
        L = float(scalar_weights(lam) @ v0 - lam @ self.model.bounds)
        sample = LagrangianSample(lam, L, v0[1:] - self.model.bounds,
                                  DeterministicPolicy(result.choice))
        self.cuts.append(sample)
        self._last = result
        return sample


# tiny preference for small multipliers: where L is flat out to the cap (a
# face with zero subgradient), the master picks the face's nearest point
# instead of an arbitrary corner of the box
_L1_WEIGHT = 1e-7
# Kelley's method certifies finitely on a piecewise-linear L; this only
# bounds the damage if oracle noise ever keeps the certificate out of reach
_MASTER_ITERS = 1000


def _master(cuts, n: int):
    """Maximise the cut envelope over the box ``0 <= lam <= MULTIPLIER_CAP``.

    Variables are ``lam`` and ``s = t - t_lo``, where ``t_lo`` lies one below
    every cut at the origin, so the origin is a feasible start.  Every row
    is a ``<=`` row with a positive right-hand side: one ``s - g . lam <=
    L - g . lam_k - t_lo`` per cut, then one ``lam_i <= MULTIPLIER_CAP`` per
    multiplier.  The box and any one cut bound ``s``, so the LP is always
    feasible and bounded.  Returns the maximiser, the envelope's value
    there, and the simplex pivots.
    """
    lams = np.array([c.lam for c in cuts])
    Ls = np.array([c.L for c in cuts])
    gs = np.array([c.g for c in cuts])
    at_origin = Ls - (gs * lams).sum(axis=1)
    t_lo = float(at_origin.min()) - 1.0
    cut_rows = np.hstack((-gs, np.ones((len(cuts), 1))))
    cap_rows = np.eye(n, n + 1)
    lp = LinearProgram("max", np.append(-_L1_WEIGHT * np.ones(n), 1.0),
                       np.vstack((cut_rows, cap_rows)),
                       np.append(at_origin - t_lo, np.full(n, MULTIPLIER_CAP)),
                       np.zeros(len(cuts) + n, dtype=bool))
    sol = solve_lp(lp)
    lam = np.clip(sol.values[:n], 0.0, MULTIPLIER_CAP)
    return lam, float(np.min(at_origin + gs @ lam)), sol.pivots


def cutting_plane(oracle: LambdaOracle, eta: float = DEFAULT_ETA):
    """Kelley's cutting-plane method over every cut the oracle has recorded.

    Starts from the origin when the oracle holds no cut.  Each round
    maximises the envelope of the cuts with a small LP and evaluates ``L`` at
    its maximiser, which adds one cut.  The round whose evaluation comes
    within ``eta`` of the envelope certifies its point eta-optimal, since the
    envelope bounds ``L`` from above everywhere (up to the subproblems'
    consistency tolerance).  A maximiser at the last cut's multiplier is
    certified by that cut alone and is not evaluated again.

    Returns the certifying sample (``oracle.cuts[-1]``), the envelope's
    maximum at that round, and the master LPs' simplex pivots.  A sample
    on the cap is returned as is; its caller judges it.  Raises ValueError
    unless ``eta`` is finite and positive.
    """
    _check_positive("eta", eta)
    n = oracle.model.n
    sample = oracle.cuts[-1] if oracle.cuts else oracle.eval(np.zeros(n))
    pivots = 0
    for _ in range(_MASTER_ITERS):
        lam, bound, lp_pivots = _master(oracle.cuts, n)
        pivots += lp_pivots
        # the last cut passes through (sample.lam, sample.L), so the envelope
        # cannot exceed sample.L there: that point is already certified
        if np.array_equal(lam, sample.lam):
            break
        sample = oracle.eval(lam)
        if sample.L >= bound - eta:
            break
    else:
        raise Nonconvergence(
            f"cutting-plane master did not certify within {_MASTER_ITERS} rounds")
    return sample, bound, pivots


def sample_surface(oracle: LambdaOracle, grid):
    """Evaluate ``L`` over a list of multipliers, warm-starting along the way."""
    samples = [oracle.eval(lam) for lam in grid]
    return [(s.lam, s.L) for s in samples]
