"""End-to-end solve pipeline: multiplier search, extraction, report.

The pipeline maximises ``L`` with Kelley's cutting-plane method on one
``LambdaOracle``, starting from ``lam = 0``; the certifying evaluation gives
``L`` at the final multiplier and the master's envelope maximum gives the
upper end of the dual bracket.  It then re-solves that subproblem in strong
mode, warm from the same evaluation, to capture every tied-greedy policy,
and decodes the optimal stochastic policy from the complementary-slackness
system.

Consistency and multiplier tolerances both leak into the extraction system's
right-hand sides.  When the system comes back infeasible, the pipeline widens
the tie threshold and the primary-cost band a few notches (the band never
beyond ``10 * epsilon``, which keeps the decoded policy's primary cost within
the advertised distance of the exact optimum) before declaring failure.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ExtractionInfeasible, Infeasible, UnboundedCoordinate
from .extract import extract_opt_policy, flat_dual_solve
from .heuristics import IDEAL_POINT, LAMBDA_SCALARISED, make_heuristic
from .model import CsspModel, StochasticPolicy, evaluate_policy
from .scalarise import DEFAULT_ETA, LambdaOracle, cutting_plane
from .search import (
    DEFAULT_BUDGET,
    DEFAULT_EPSILON,
    STRONG,
    SearchResult,
    solve_lambda_ssp,
)

_LADDER_STEPS = 4


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
    backups: int               # one per state backup and per pair the repair screens
    expansions: int
    lp_pivots: int             # extraction LPs only
    wall_time: float
    extraction: str            # "structural" (no LP ran) or "lp"
    master_pivots: int = 0     # the cutting-plane master LPs
    dual_bracket: list = field(default_factory=list)   # [L(lam), master's bound]
    epsilon: float = DEFAULT_EPSILON
    eta: float = DEFAULT_ETA

    def to_dict(self) -> dict:
        return {
            "solver": self.solver,
            "primary_cost": self.primary_cost,
            "secondary_costs": self.secondary_costs,
            "bounds": self.bounds,
            "gap": self.gap,
            "lambda": self.lam,
            "dual_bracket": self.dual_bracket,
            "counts": {
                "lambda_ssps": self.lambda_ssps,
                "backups": self.backups,
                "expansions": self.expansions,
                "lp_pivots": self.lp_pivots,
                "master_pivots": self.master_pivots,
            },
            "flags": {"extraction": self.extraction},
            "epsilon": self.epsilon,
            "eta": self.eta,
            "wall_time": self.wall_time,
        }


@dataclass
class SolveOutcome:
    policy: StochasticPolicy
    cost: np.ndarray
    report: RunReport


def _strong_resolve(oracle: LambdaOracle, lam, tie_epsilon: float,
                    budget: int) -> SearchResult:
    return solve_lambda_ssp(oracle.model, lam, oracle.warm_start(lam),
                            oracle.heuristic_for(lam),
                            epsilon=oracle.epsilon, mode=STRONG,
                            tie_epsilon=tie_epsilon, budget=budget)


def _extract_with_ladder(oracle: LambdaOracle, lam, epsilon: float,
                         tie_epsilon: float, budget: int, stats: dict):
    """Strong re-solve plus extraction, widening tolerances on infeasibility.

    Each rung widens the tie threshold (more support pairs, always safe) and
    the primary-cost band (capped at 10 * epsilon so the decoded policy stays
    within the advertised distance of the exact optimum).
    """
    model = oracle.model
    last_exc = None
    for rung in range(_LADDER_STEPS):
        tie = tie_epsilon * 10.0 ** rung
        band = min((model.n * epsilon + 1e-7) * 10.0 ** rung, 10.0 * epsilon)
        result = _strong_resolve(oracle, lam, tie, budget)
        stats["backups"] += result.stats.backups
        stats["expansions"] += result.stats.expansions
        stats["strong_solves"] += 1
        try:
            policy, pivots = extract_opt_policy(model, lam, result,
                                                epsilon=epsilon, band=band)
            stats["lp_pivots"] += pivots
            stats["extraction"] = "lp" if pivots else "structural"
            return policy, result
        except ExtractionInfeasible as exc:
            stats["lp_pivots"] += exc.pivots
            last_exc = exc
    return None, last_exc


def _adjudicate_unbounded(model: CsspModel, exc: UnboundedCoordinate):
    """Turn a multiplier-cap hit into the honest verdict.

    An unbounded dual certifies infeasibility, but a feasible instance whose
    constraints all bind with zero slack can park its dual maximiser beyond
    any fixed cap.  The exact occupation-measure solve settles which case
    this is.
    """
    from .errors import Nonconvergence
    try:
        flat_dual_solve(model)
    except Infeasible:
        raise Infeasible(str(exc)) from None
    raise Nonconvergence(
        "multiplier search exceeded its cap on a feasible instance "
        "(dual maximiser beyond the cap)") from exc


def solve_cssp(model: CsspModel, heuristic: str = IDEAL_POINT,
               epsilon: float = DEFAULT_EPSILON, eta: float = DEFAULT_ETA,
               tie_epsilon: Optional[float] = None,
               budget: int = DEFAULT_BUDGET) -> SolveOutcome:
    """Full pipeline; returns the extracted policy, its cost and a run report.

    Raises Infeasible when the instance has no feasible policy, and
    ExtractionInfeasible if extraction fails at the certified multiplier
    (with the exact occupation-measure oracle consulted to rule out plain
    infeasibility first).
    """
    start = time.perf_counter()
    tie_epsilon = epsilon if tie_epsilon is None else tie_epsilon
    if heuristic == LAMBDA_SCALARISED:
        h0 = make_heuristic(model, LAMBDA_SCALARISED, np.zeros(model.n))
        oracle = LambdaOracle(model, h0, epsilon, budget,
                              h_factory=lambda lam: make_heuristic(
                                  model, LAMBDA_SCALARISED, lam))
    else:
        oracle = LambdaOracle(model, make_heuristic(model, heuristic),
                              epsilon, budget)
    stats = {"backups": 0, "expansions": 0, "strong_solves": 0, "lp_pivots": 0}

    try:
        sample, ub, master_pivots = cutting_plane(oracle, eta)
    except UnboundedCoordinate as exc:
        _adjudicate_unbounded(model, exc)
    lam = sample.lam

    policy, aux = _extract_with_ladder(oracle, lam, epsilon, tie_epsilon,
                                       budget, stats)
    if policy is None:
        # adjudicate: a truly infeasible instance ends here too
        try:
            flat_dual_solve(model)
        except Infeasible:
            raise Infeasible("no feasible policy exists") from None
        raise ExtractionInfeasible(
            "extraction failed at the final multiplier") from aux

    cost = evaluate_policy(model, policy)
    report = RunReport(
        solver="scalarise",
        primary_cost=float(cost[0]),
        secondary_costs=[float(c) for c in cost[1:]],
        bounds=[float(b) for b in model.bounds],
        gap=float(cost[0]) - sample.L,
        lam=[float(x) for x in lam],
        lambda_ssps=oracle.solves + stats["strong_solves"],
        backups=oracle.backups + stats["backups"],
        expansions=oracle.expansions + stats["expansions"],
        lp_pivots=stats["lp_pivots"],
        wall_time=time.perf_counter() - start,
        extraction=stats["extraction"],
        master_pivots=master_pivots,
        dual_bracket=[sample.L, ub],
        epsilon=epsilon,
        eta=eta,
    )
    return SolveOutcome(policy, cost, report)


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
        extraction="lp",
    )
    return SolveOutcome(policy, cost, report)
