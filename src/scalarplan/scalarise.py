"""Outer optimisation over the Lagrangian multiplier vector.

``L(lam)`` is the optimal policy cost of the scalarised subproblem plus the
constant terminal term ``-lam . bounds``.  Plotted over all multipliers it is
piecewise linear and concave, so each solved subproblem hands back both the
value and a subgradient, and the maximiser can be found by coordinate search
with exact line searches.  Coordinate search can stall on kinks that require
a diagonal move; the complete fallback is Kelley's cutting-plane method, which
maximises the envelope of every cut the oracle has recorded.

``LambdaOracle`` solves the subproblem for every multiplier, each solve warm
from the last, and keeps one ``LagrangianSample`` (``lam``, ``L``, ``g``)
per evaluation; the searches below take the oracle and read its samples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import Nonconvergence, UnboundedCoordinate
from .heuristics import HeuristicVector
from .linalg import LESS, LinearProgram, solve_lp
from .model import CsspModel
from .search import (
    DEFAULT_BUDGET,
    DEFAULT_EPSILON,
    PLAIN,
    SearchResult,
    VectorValueFunction,
    as_scalarisation,
    scalar_weights,
    solve_lambda_ssp,
    warm_restart,
)

DEFAULT_ETA = 1e-4
LINE_SEARCH_CAP = 1e6


@dataclass
class LagrangianSample:
    """One oracle evaluation, which is also the cut ``L(x) <= L + g . (x - lam)``."""

    lam: np.ndarray
    L: float
    g: np.ndarray


@dataclass
class LambdaSearchTrace:
    samples: list = field(default_factory=list)   # accepted steps, in order
    lp_pivots: int = 0


class LambdaOracle:
    """Evaluates ``L`` and a subgradient per multiplier, warm-starting each solve.

    The subgradient comes from the tie-broken optimal policy of the solved
    subproblem: component i is that policy's i-th expected cost minus its
    bound.  At kinks the policy is non-unique; the tie-broken policy's
    subgradient is the one reported.  Every evaluation is also recorded in
    ``cuts``, in order: each sample is a supporting hyperplane of ``L``,
    and the cutting-plane master maximises their envelope.
    """

    def __init__(self, model: CsspModel, h: HeuristicVector,
                 epsilon: float = DEFAULT_EPSILON, budget: int = DEFAULT_BUDGET,
                 h_factory=None):
        self.model = model
        self.h = h
        self.h_factory = h_factory   # lam -> HeuristicVector, for per-lam heuristics
        self.epsilon = epsilon
        self.budget = budget
        self.solves = 0
        self.backups = 0
        self.expansions = 0
        self.cuts = []
        self._last: Optional[SearchResult] = None   # the next solve warm-starts here

    def heuristic_for(self, lam) -> HeuristicVector:
        return self.h_factory(lam) if self.h_factory is not None else self.h

    def warm_start(self, lam) -> Optional[VectorValueFunction]:
        """The last solve's value function prepared for a solve at ``lam``.

        None when there is no solve to start from.  Every warm solve starts
        here: the plain ones in ``eval`` and the solver's strong re-solve.
        """
        if self._last is None:
            return None
        return warm_restart(self._last, self._last.lam, lam)

    def eval(self, lam) -> LagrangianSample:
        lam = as_scalarisation(lam, self.model.n)
        result = solve_lambda_ssp(self.model, lam, self.warm_start(lam),
                                  self.heuristic_for(lam),
                                  epsilon=self.epsilon, mode=PLAIN,
                                  budget=self.budget)
        self.solves += 1
        self.backups += result.stats.backups
        self.expansions += result.stats.expansions
        v0 = result.V.values[self.model.initial]
        L = float(scalar_weights(lam) @ v0 - lam @ self.model.bounds)
        sample = LagrangianSample(lam, L, v0[1:] - self.model.bounds)
        self.cuts.append(sample)
        self._last = result
        return sample


# ---------------------------------------------------------------------------
# exact line search along one coordinate
# ---------------------------------------------------------------------------

def exact_line_search(oracle: LambdaOracle, lam, i: int,
                      eta: float = DEFAULT_ETA):
    """Maximise ``L`` along coordinate ``i`` with all other entries frozen.

    Keeps a lower anchor with positive subgradient and an upper anchor with
    nonpositive subgradient, and repeatedly evaluates the intersection of the
    two supporting lines.  On a piecewise-linear concave section this pins the
    maximising kink exactly; otherwise it stops once the bracket is narrower
    than ``eta``.  Returns the sample at the maximiser found, and leaves the
    oracle's warm state there.
    """
    lam = as_scalarisation(lam, oracle.model.n).copy()

    def at(x: float) -> LagrangianSample:
        probe = lam.copy()
        probe[i] = x
        return oracle.eval(probe)

    lo = at(0.0)
    if lo.g[i] <= 0.0:
        return lo
    u = 1.0
    hi = at(u)
    while hi.g[i] > 0.0:
        u *= 2.0
        if u > LINE_SEARCH_CAP:
            raise UnboundedCoordinate(
                f"coordinate {i} subgradient stays positive past {LINE_SEARCH_CAP}; "
                "the instance admits no feasible policy")
        hi = at(u)

    l, u = 0.0, u
    best = lo if lo.L >= hi.L else hi
    for _ in range(200):
        gl, gu = lo.g[i], hi.g[i]
        m = (hi.L - lo.L + gl * l - gu * u) / (gl - gu)
        if not (l < m < u):
            break
        # intersection collapsing onto an anchor pins the kink there
        if m - l <= 1e-15 * max(1.0, abs(l)) or u - m <= 1e-15 * max(1.0, abs(u)):
            break
        mid = at(m)
        if mid.L >= best.L:
            best = mid
        predicted = lo.L + gl * (m - l)
        if mid.L >= predicted - 1e-11 * (1.0 + abs(predicted)):
            return mid             # both supporting lines are active here
        if mid.g[i] == 0.0:
            return mid
        if mid.g[i] > 0.0:
            l, lo = m, mid
        else:
            u, hi = m, mid
        if u - l <= eta:
            break
    if not np.array_equal(best.lam, oracle.cuts[-1].lam):
        best = at(best.lam[i])     # leave the warm state at the returned point
    return best


# ---------------------------------------------------------------------------
# coordinate search and the cutting-plane fallback
# ---------------------------------------------------------------------------

_POLISH_TOL = 1e-11
_POLISH_SWEEPS = 64   # geometric contraction reaches machine scale well within this
_MAX_SWEEPS = 10_000


def coordinate_search(oracle: LambdaOracle, eta: float = DEFAULT_ETA):
    """Ascend ``L`` one coordinate at a time, sweeping in ascending index order.

    The search is converged once a full sweep improves ``L`` by at most
    ``eta``; after that, polish sweeps continue while improvements stay above
    machine scale.  Each line search pins its kink by exact line intersection,
    so the polish drives the multiplier onto the axis-maximal point itself
    rather than stopping an eta-sized step short of it; without it, the
    leftover gap is indistinguishable from a genuine coordinate-search stall
    downstream.  Returns the last evaluation, which sits at the final
    multiplier, and the trace of accepted steps.  The result maximises ``L``
    along every axis, which is not always the global maximum; callers detect
    that case and fall back.
    """
    n = oracle.model.n
    lam = np.zeros(n)
    current = oracle.eval(lam)
    trace = LambdaSearchTrace([current])
    converged_at = None
    for sweep in range(_MAX_SWEEPS):
        if n == 0:
            break
        best_gain = 0.0
        for i in range(n):
            sample = exact_line_search(oracle, lam, i, eta)
            gain = sample.L - current.L
            if sample.lam[i] != lam[i] and gain > 0.0:
                lam = sample.lam
                current = sample
                trace.samples.append(sample)
                best_gain = max(best_gain, gain)
            elif not np.array_equal(oracle.cuts[-1].lam, lam):
                current = oracle.eval(lam)   # restore the warm state
        if best_gain <= _POLISH_TOL * (1.0 + abs(current.L)):
            break
        if best_gain <= eta:
            if converged_at is None:
                converged_at = sweep
            elif sweep - converged_at >= _POLISH_SWEEPS:
                break
    return oracle.cuts[-1], trace


def detect_coordinate_failure(extracted_primary: float, L_dagger: float) -> bool:
    """True when the extracted policy's primary cost exceeds ``L(lam)``.

    At a true maximiser the two coincide, so a strictly larger primary cost
    certifies that coordinate search stalled short of the optimum.
    """
    return extracted_primary > L_dagger + 1e-6 * (1.0 + abs(L_dagger))


# tiny preference for small multipliers: where L is flat out to the cap (a
# face with zero subgradient), the master picks the face's nearest point
# instead of an arbitrary corner of the box
_L1_WEIGHT = 1e-7
# Kelley's method certifies finitely on a piecewise-linear L; this only
# bounds the damage if oracle noise ever keeps the certificate out of reach
_MASTER_ITERS = 1000


def _master(cuts, n: int):
    """Maximise the cut envelope over the box ``0 <= lam <= LINE_SEARCH_CAP``.

    Variables are ``lam`` and ``s = t - t_lo``, where ``t_lo`` lies one below
    every cut at the origin, so the origin is a feasible start and every row
    is a plain ``<=`` with positive right-hand side; the box and any one cut
    bound ``s``, so the LP is always feasible and bounded.  Returns the
    maximiser, the envelope's value there, and the simplex pivots.
    """
    lams = np.array([c.lam for c in cuts])
    Ls = np.array([c.L for c in cuts])
    gs = np.array([c.g for c in cuts])
    at_origin = Ls - (gs * lams).sum(axis=1)
    t_lo = float(at_origin.min()) - 1.0
    lp = LinearProgram(n + 1, sense="max",
                       objective=np.concatenate((-_L1_WEIGHT * np.ones(n), [1.0])),
                       upper=np.concatenate((np.full(n, LINE_SEARCH_CAP), [np.inf])))
    for g, rhs in zip(gs, at_origin - t_lo):
        lp.add_row(np.concatenate((-g, [1.0])), LESS, rhs)
    sol = solve_lp(lp)
    lam = np.clip(sol.values[:n], 0.0, LINE_SEARCH_CAP)
    return lam, float(np.min(at_origin + gs @ lam)), sol.pivots


def cutting_plane(oracle: LambdaOracle, eta: float = DEFAULT_ETA):
    """Kelley's cutting-plane method over every cut the oracle has recorded.

    Each round maximises the envelope of the cuts with a small LP and
    evaluates ``L`` at its maximiser, which adds one cut.  The round whose
    evaluation comes within ``eta`` of the envelope certifies its point
    eta-optimal, since the envelope bounds ``L`` from above everywhere.
    Returns that point and the trace of evaluated master points.  Raises
    UnboundedCoordinate when the certified point sits on the cap.
    """
    n = oracle.model.n
    if not oracle.cuts:
        oracle.eval(np.zeros(n))
    trace = LambdaSearchTrace()
    for _ in range(_MASTER_ITERS):
        lam, bound, pivots = _master(oracle.cuts, n)
        trace.lp_pivots += pivots
        sample = oracle.eval(lam)
        trace.samples.append(sample)
        if sample.L >= bound - eta:
            break
    else:
        raise Nonconvergence(
            f"cutting-plane master did not certify within {_MASTER_ITERS} rounds")
    if np.max(lam, initial=0.0) >= (1.0 - 1e-9) * LINE_SEARCH_CAP:
        raise UnboundedCoordinate(
            f"the maximiser of L lies on the multiplier cap {LINE_SEARCH_CAP}; "
            "the instance admits no feasible policy")
    return lam, trace


def sample_surface(oracle: LambdaOracle, grid):
    """Evaluate ``L`` over a list of multipliers, warm-starting along the way."""
    samples = [oracle.eval(lam) for lam in grid]
    return [(s.lam, s.L) for s in samples]
