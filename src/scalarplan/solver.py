"""End-to-end solve pipeline: multiplier search, policy mixture, report.

The pipeline maximises ``L`` with Kelley's cutting-plane method on one
``LambdaOracle``, starting from ``lam = 0``; the certifying evaluation gives
``L`` at the final multiplier and the master's envelope maximum gives the
upper end of the dual bracket.  Every evaluation also left its greedy
deterministic policy on its cut.  The pipeline prices those policies
exactly and mixes them with the restricted master LP of ``mix_policies``,
which yields the optimal stochastic policy and its cost.
Should the certified multiplier sit on its cap, or no mixture meet the
bounds, ``solve_cssp`` runs the exact occupation-measure LP once, in one
branch: the instance is infeasible (Infeasible) or the search stopped short
(Nonconvergence).
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from .errors import ExtractionInfeasible, Infeasible, Nonconvergence
from .extract import Mixture, flat_dual_solve, mix_policies
from .heuristics import IDEAL_POINT, make_heuristic
from .model import CsspModel, StochasticPolicy
from .scalarise import DEFAULT_ETA, MULTIPLIER_CAP, LambdaOracle, cutting_plane
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
    epsilon: Optional[float] = None   # the search's tolerances; the exact LP has none
    eta: Optional[float] = None

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


def solve_cssp(model: CsspModel, heuristic: str = IDEAL_POINT,
               epsilon: float = DEFAULT_EPSILON, eta: float = DEFAULT_ETA,
               budget: int = DEFAULT_BUDGET) -> SolveOutcome:
    """Full pipeline: the mixed policy, its exact price ``sum mu_k C_k``, a report.

    Raises ValueError on a nonpositive, non-finite or boolean ``epsilon`` or
    ``eta`` and on a ``budget`` below 1, not whole or boolean.  When the
    multiplier search ends on its cap, or no mixture of the cut policies
    meets the bounds, the exact occupation-measure LP decides: Infeasible
    when the instance has no feasible policy, Nonconvergence when it has one
    and the search stopped short.
    """
    start = time.perf_counter()
    oracle = LambdaOracle(model, make_heuristic(model, heuristic), epsilon, budget)
    sample, ub, master_pivots = cutting_plane(oracle, eta)
    mixture = None
    if np.max(sample.lam, initial=0.0) >= (1.0 - 1e-9) * MULTIPLIER_CAP:
        # an unbounded dual certifies infeasibility, but a feasible instance
        # whose constraints all bind with zero slack can park its dual
        # maximiser beyond any fixed cap
        infeasible = (f"the maximiser of L lies on the multiplier cap {MULTIPLIER_CAP}; "
                      "the instance admits no feasible policy")
        short = ("multiplier search exceeded its cap on a feasible instance "
                 "(dual maximiser beyond the cap)")
    else:
        try:
            mixture = mix_policies(model, (cut.policy for cut in oracle.cuts))
        except ExtractionInfeasible as exc:
            # a truly infeasible instance ends here too
            infeasible, short = "no feasible policy exists", str(exc)
    if mixture is None:
        try:
            flat_dual_solve(model)
        except Infeasible:
            raise Infeasible(infeasible) from None
        raise Nonconvergence(short)

    cost = mixture.weights @ mixture.costs
    report = RunReport(
        solver="scalarise",
        primary_cost=float(cost[0]),
        secondary_costs=[float(c) for c in cost[1:]],
        bounds=[float(b) for b in model.bounds],
        gap=float(cost[0]) - sample.L,
        lam=[float(x) for x in sample.lam],
        lambda_ssps=len(oracle.cuts),
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
