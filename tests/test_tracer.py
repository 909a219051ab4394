"""Smoke test of the benchmark's tracer (perfbench/spans.py) against the package.

The tracer wraps the package's public functions from outside and reads
counts off their results, so a rename or a changed result field shows up
here, not only when the benchmark runs.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import pytest  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from conftest import random_model  # noqa: E402
from scalarplan.extract import flat_dual_solve  # noqa: E402
from scalarplan.solver import oracle_solve, solve_cssp  # noqa: E402

# targets the tracer still lists whose functions the package retired on
# purpose; any other missing target is a rename that would silently zero
# the figures keyed on it
RETIRED = {"scalarise.exact_line_search", "scalarise.coordinate_search",
           "scalarise.subgradient_fallback", "extract.extract_opt_policy"}


def test_traced_solve_counts_match_report(commute):
    tracer = spans.Tracer()
    with tracer.installed(), tracer.root("solve", "commute"):
        report = solve_cssp(commute).report
    assert set(tracer.missing) <= RETIRED
    assert not [s for s in tracer.spans if "error" in s[spans.ATTRS]]
    _, _, solve_counts = spans.layer_metrics(tracer.spans)
    assert solve_counts == {0: [report.lambda_ssps, report.backups, report.expansions]}


@pytest.mark.parametrize("name", ["commute", "staircase", "pathological", "two_optima"])
def test_traced_oracle_solve_counts_match_report(name, request):
    # the benchmark traces the exact LP too; its hook reads the LP's rows,
    # columns and pivots
    tracer = spans.Tracer()
    with tracer.installed(), tracer.root("oracle", name):
        report = oracle_solve(request.getfixturevalue(name)).report
    assert set(tracer.missing) <= RETIRED
    assert not [s for s in tracer.spans if "error" in s[spans.ATTRS]]
    lps = [s[spans.ATTRS] for s in tracer.spans if s[spans.NAME] == "linalg.solve_lp"]
    assert len(lps) == 1 and lps[0]["rows"] > 0 and lps[0]["cols"] > 0
    metrics, _, _ = spans.layer_metrics(tracer.spans)
    assert metrics["oracle.lp_pivots"] == report.lp_pivots > 0


@pytest.mark.parametrize("name", ["commute", "staircase", "pathological", "two_optima",
                                  "random"])
def test_benchmark_answer_check_passes(name, request):
    # the benchmark's own check of every answer (LP cost, bounds and the flow
    # residual of the policy's occupation measure) against the exact LP
    if name == "random":
        model = random_model(7, states=30)
    else:
        model = request.getfixturevalue(name)
    out = solve_cssp(model)
    _, exact, _ = flat_dual_solve(model)
    primary = out.report.primary_cost
    assert run.check_policy(model, out.policy, primary, float(exact[0])) is None
