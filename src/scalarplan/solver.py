"""End-to-end solve pipeline: multiplier search, policy mixture, report.

The pipeline maximises ``L`` with Kelley's cutting-plane method on one
``LambdaOracle``, starting from ``lam = 0``; the certifying evaluation gives
``L`` at the final multiplier and the master's envelope maximum gives the
upper end of the dual bracket.  Every evaluation also left its greedy
deterministic policy on its cut.  The pipeline prices those policies
exactly and mixes them with the restricted master LP of ``mix_policies``,
which yields the optimal stochastic policy and its cost.
Should no mixture meet the bounds, the exact occupation-measure LP decides
whether the instance is infeasible or the search stopped short.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from .errors import (
    ExtractionInfeasible,
    Infeasible,
    Nonconvergence,
    UnboundedCoordinate,
)
from .extract import Mixture, flat_dual_solve, mix_policies
from .heuristics import IDEAL_POINT, make_heuristic
from .model import CsspModel, StochasticPolicy
from .scalarise import DEFAULT_ETA, LambdaOracle, cutting_plane
from .search import DEFAULT_BUDGET, DEFAULT_EPSILON


@dataclass
class RunReport:
    """Per-run statistics in the shape the CLI prints."""

    solver: str
    primary_cost: float
    secondary_costs: list
    bounds: list
    gap: float
    lam: list
    lambda_ssps: int
    backups: int               # states backed up in sweeps + pairs screened (repair, certificate)
    expansions: int
    lp_pivots: int             # the policy-mixture LP, or the exact LP's
    wall_time: float
    master_pivots: int = 0     # the cutting-plane master LPs
    dual_bracket: list = field(default_factory=list)   # [L(lam), master's bound]
    epsilon: float = DEFAULT_EPSILON
    eta: float = DEFAULT_ETA

    def to_dict(self) -> dict:
        """The fields by name, ``lam`` as ``lambda`` and the counters under ``counts``."""
        doc = asdict(self)
        doc["lambda"] = doc.pop("lam")
        doc["counts"] = {key: doc.pop(key) for key in (
            "lambda_ssps", "backups", "expansions", "lp_pivots", "master_pivots")}
        return doc


@dataclass
class SolveOutcome:
    policy: StochasticPolicy
    cost: np.ndarray
    report: RunReport
    mixture: Optional[Mixture] = None   # the weighted deterministic policies


def _adjudicate_unbounded(model: CsspModel, exc: UnboundedCoordinate):
    """Turn a multiplier-cap hit into the honest verdict.

    An unbounded dual certifies infeasibility, but a feasible instance whose
    constraints all bind with zero slack can park its dual maximiser beyond
    any fixed cap.  The exact occupation-measure solve settles which case
    this is.
    """
    try:
        flat_dual_solve(model)
    except Infeasible:
        raise Infeasible(str(exc)) from None
    raise Nonconvergence(
        "multiplier search exceeded its cap on a feasible instance "
        "(dual maximiser beyond the cap)") from exc


def solve_cssp(model: CsspModel, heuristic: str = IDEAL_POINT,
               epsilon: float = DEFAULT_EPSILON, eta: float = DEFAULT_ETA,
               budget: int = DEFAULT_BUDGET) -> SolveOutcome:
    """Full pipeline: the mixed policy, its exact price ``sum mu_k C_k``, a report.

    Raises ValueError on a nonpositive or non-finite ``epsilon`` or ``eta``
    and on a ``budget`` below 1 or not whole, Infeasible when the instance
    has no feasible policy, and ExtractionInfeasible when no mixture of the
    cut policies meets the bounds although the exact occupation-measure LP
    finds the instance feasible.
    """
    start = time.perf_counter()
    oracle = LambdaOracle(model, make_heuristic(model, heuristic), epsilon, budget)
    try:
        sample, ub, master_pivots = cutting_plane(oracle, eta)
    except UnboundedCoordinate as exc:
        _adjudicate_unbounded(model, exc)

    try:
        mixture = mix_policies(model, (cut.policy for cut in oracle.cuts))
    except ExtractionInfeasible:
        # a truly infeasible instance ends here too
        try:
            flat_dual_solve(model)
        except Infeasible:
            raise Infeasible("no feasible policy exists") from None
        raise

    cost = mixture.weights @ mixture.costs
    report = RunReport(
        solver="scalarise",
        primary_cost=float(cost[0]),
        secondary_costs=[float(c) for c in cost[1:]],
        bounds=[float(b) for b in model.bounds],
        gap=float(cost[0]) - sample.L,
        lam=[float(x) for x in sample.lam],
        lambda_ssps=oracle.solves,
        backups=oracle.backups,
        expansions=oracle.expansions,
        lp_pivots=mixture.pivots,
        wall_time=time.perf_counter() - start,
        master_pivots=master_pivots,
        dual_bracket=[sample.L, ub],
        epsilon=epsilon,
        eta=eta,
    )
    return SolveOutcome(mixture.policy, cost, report, mixture)


def oracle_solve(model: CsspModel) -> SolveOutcome:
    """Exact solve via the flat occupation-measure program, same report shape."""
    start = time.perf_counter()
    policy, cost, pivots = flat_dual_solve(model)
    report = RunReport(
        solver="exact-lp",
        primary_cost=float(cost[0]),
        secondary_costs=[float(c) for c in cost[1:]],
        bounds=[float(b) for b in model.bounds],
        gap=0.0,
        lam=[],
        lambda_ssps=0,
        backups=0,
        expansions=0,
        lp_pivots=pivots,
        wall_time=time.perf_counter() - start,
    )
    return SolveOutcome(policy, cost, report)
