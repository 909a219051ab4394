"""Command-line front end.

Subcommands: ``solve`` (full pipeline), ``oracle`` (exact LP solve),
``compare`` (both, with agreement check), ``eval`` (price a policy file),
``surface`` (CSV of the Lagrangian over a multiplier grid) and ``gen``
(emit built-in instances).  Each subcommand takes only the flags it reads.
Exit codes: 0 success, 1 disagreement, bad input or bad usage, 2 infeasible
instance, 3 nonconvergence.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .domains import KINDS, GeneratorSpec, generate
from .errors import (
    ExtractionInfeasible,
    Infeasible,
    Nonconvergence,
    ScalarplanError,
)
from .heuristics import IDEAL_POINT, LAMBDA_SCALARISED, ZERO, make_heuristic
from .model import (
    evaluate_policy,
    feasibility_check,
    finite_penalty_transform,
    load_model_file,
    model_to_document,
    policy_from_names,
    policy_to_names,
)
from .scalarise import DEFAULT_BUDGET, DEFAULT_EPSILON, DEFAULT_ETA, LambdaOracle, sample_surface
from .solver import oracle_solve, solve_cssp

EXIT_OK, EXIT_ERROR, EXIT_INFEASIBLE, EXIT_NONCONVERGENCE = 0, 1, 2, 3
AGREEMENT_SLACK = 1e-5
MAX_GRID_POINTS = 10 ** 6   # largest multiplier grid ``surface`` accepts


def _add_model_flags(p):
    p.add_argument("model")
    p.add_argument("--penalty", type=str, default=None,
                   help="comma-separated give-up cost vector p0,p1,...; applies "
                        "the finite-penalty transform before solving")
    p.add_argument("--out", type=str, default=None, help="write output here")


def _add_search_flags(p):
    p.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON,
                   help="consistency tolerance for subproblem solves")
    p.add_argument("--heuristic", choices=[ZERO, IDEAL_POINT, LAMBDA_SCALARISED],
                   default=IDEAL_POINT)
    p.add_argument("--backup-budget", type=int, default=DEFAULT_BUDGET)


def _load(args):
    model = load_model_file(args.model)
    if args.penalty:
        penalty = np.array([float(x) for x in args.penalty.split(",")])
        model = finite_penalty_transform(model, penalty)
    return model


def _emit(args, payload: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _report_json(report, policy_doc) -> str:
    doc = report.to_dict()
    doc["policy"] = policy_doc
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def cmd_solve(args) -> int:
    model = _load(args)
    outcome = solve_cssp(
        model, heuristic=args.heuristic, epsilon=args.epsilon, eta=args.eta,
        budget=args.backup_budget)
    _emit(args, _report_json(outcome.report,
                             policy_to_names(model, outcome.policy)))
    return EXIT_OK


def cmd_oracle(args) -> int:
    model = _load(args)
    outcome = oracle_solve(model)
    _emit(args, _report_json(outcome.report,
                             policy_to_names(model, outcome.policy)))
    return EXIT_OK


def cmd_compare(args) -> int:
    model = _load(args)
    scal = solve_cssp(
        model, heuristic=args.heuristic, epsilon=args.epsilon, eta=args.eta,
        budget=args.backup_budget)
    exact = oracle_solve(model)
    delta = abs(scal.report.primary_cost - exact.report.primary_cost)
    tol = 10.0 * args.epsilon + AGREEMENT_SLACK
    lines = [
        f"{'solver':<14}{'primary':>14}{'secondary':>30}",
        f"{'scalarise':<14}{scal.report.primary_cost:>14.6f}"
        f"{str([round(c, 6) for c in scal.report.secondary_costs]):>30}",
        f"{'exact-lp':<14}{exact.report.primary_cost:>14.6f}"
        f"{str([round(c, 6) for c in exact.report.secondary_costs]):>30}",
        f"|delta| = {delta:.3e} (tolerance {tol:.3e})",
    ]
    _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK if delta <= tol else EXIT_ERROR


def cmd_eval(args) -> int:
    model = _load(args)
    with open(args.policy, "r", encoding="utf-8") as fh:
        policy = policy_from_names(model, json.load(fh))
    cost = evaluate_policy(model, policy)
    feasible = feasibility_check(model, cost)
    doc = {
        "cost": [float(c) for c in cost],
        "bounds": [float(b) for b in model.bounds],
        "feasible": bool(feasible),
    }
    _emit(args, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def _parse_grid(spec: str, n: int):
    try:
        lo, hi, step = (float(x) for x in spec.split(":"))
    except ValueError:   # not three numbers
        raise ValueError(f"bad grid spec {spec!r}: expected lo:hi:step") from None
    if not (0 <= lo <= hi and step > 0 and math.isfinite(hi + step)):
        raise ValueError(f"bad grid spec {spec!r}")
    if n == 0:
        return [np.zeros(0)]
    # the axis length np.arange below gives, before rounding up; checked
    # first, so a grid that is too large allocates nothing
    per_axis = (hi + step / 2 - lo) / step
    if per_axis > MAX_GRID_POINTS or math.ceil(per_axis) ** n > MAX_GRID_POINTS:
        raise ValueError(f"grid {spec!r} over {n} multipliers has more than "
                         f"{MAX_GRID_POINTS} points")
    axis = np.arange(lo, hi + step / 2, step)
    grids = np.meshgrid(*([axis] * n), indexing="ij")
    return [np.array(point) for point in zip(*(g.ravel() for g in grids))]


def cmd_surface(args) -> int:
    model = _load(args)
    grid = _parse_grid(args.grid, model.n)
    oracle = LambdaOracle(model, make_heuristic(model, args.heuristic),
                          args.epsilon, args.backup_budget)
    points = sample_surface(oracle, grid)
    header = ",".join(f"lambda_{i + 1}" for i in range(model.n)) + ",L"
    if model.n == 0:
        header = "L"
    rows = [header]
    for lam, L in points:
        cells = [f"{x:.10g}" for x in lam] + [f"{L:.10g}"]
        rows.append(",".join(cells))
    _emit(args, "\n".join(rows) + "\n")
    return EXIT_OK


def cmd_gen(args) -> int:
    spec = GeneratorSpec(
        kind=args.kind, n=args.tw_n, d=args.tw_d, c=args.tw_c,
        states=args.states, actions_per_state=args.actions_per_state,
        secondary=args.n_secondary, seed=args.seed)
    model = generate(spec)
    payload = json.dumps(model_to_document(model), indent=2, sort_keys=True) + "\n"
    _emit(args, payload)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scalarplan",
        description="Constrained stochastic shortest path solver via "
                    "Lagrangian scalarisation search")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, func, text in (("solve", cmd_solve, "run the full scalarisation pipeline"),
                             ("compare", cmd_compare, "run both solvers and check agreement")):
        p = sub.add_parser(name, help=text)
        _add_model_flags(p)
        _add_search_flags(p)
        p.add_argument("--eta", type=float, default=DEFAULT_ETA,
                       help="multiplier search tolerance")
        p.set_defaults(func=func)

    p = sub.add_parser("oracle", help="exact occupation-measure LP solve")
    _add_model_flags(p)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("eval", help="evaluate a policy file against a model")
    _add_model_flags(p)
    p.add_argument("policy")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("surface", help="sample L over a multiplier grid (CSV)")
    _add_model_flags(p)
    _add_search_flags(p)
    p.add_argument("--grid", default="0:2:0.1", help="per-axis range lo:hi:step")
    p.set_defaults(func=cmd_surface)

    p = sub.add_parser("gen", help="emit a built-in instance as model JSON")
    p.add_argument("--kind", choices=list(KINDS), required=True)
    p.add_argument("--tw-n", type=int, default=None)
    p.add_argument("--tw-d", type=int, default=None)
    p.add_argument("--tw-c", type=int, default=None)
    p.add_argument("--states", type=int, default=None)
    p.add_argument("--actions-per-state", type=int, default=None)
    p.add_argument("--n-secondary", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=cmd_gen)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage, but 2 means an infeasible instance
        return EXIT_OK if exc.code in (0, None) else EXIT_ERROR
    try:
        return args.func(args)
    except Infeasible as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (Nonconvergence, ExtractionInfeasible) as exc:
        print(f"nonconvergence: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except (ScalarplanError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
