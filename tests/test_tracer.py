"""Smoke test of the benchmark's tracer (perfbench/spans.py) against the package.

The tracer wraps the package's public functions from outside and reads
counts off their results, so a rename or a changed result field shows up
here, not only when the benchmark runs.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import spans  # noqa: E402
from scalarplan.solver import solve_cssp  # noqa: E402


def test_traced_solve_counts_match_report(commute):
    tracer = spans.Tracer()
    with tracer.installed(), tracer.root("solve", "commute"):
        report = solve_cssp(commute).report
    assert not [s for s in tracer.spans if "error" in s[spans.ATTRS]]
    _, _, solve_counts = spans.layer_metrics(tracer.spans)
    assert solve_counts == {0: [report.lambda_ssps, report.backups, report.expansions]}
