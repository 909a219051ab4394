"""The pipeline against the exact LP on every small instance of the family.

The family is acceptance seeds 0-1199 and ``wide_outcome_model`` seeds
0-29, 1,229 instances in all: seed 277 has a test of its own, since its
solve does not end at the default budget.  Each instance is solved once
by ``solve_cssp`` and once by ``flat_dual_solve``; the tests below read
those answers.  Soundness checks that fail today are strict xfails whose
message names every failing instance.
"""

import pytest

from conftest import wide_outcome_model
from scalarplan.errors import Nonconvergence, ScalarplanError
from scalarplan.extract import flat_dual_solve
from scalarplan.solver import solve_cssp
from test_search import acceptance_model

COST_TOL = 1e-9
BOUND_TOL = 1e-12


def _attempt(solve, model):
    try:
        return solve(model)
    except ScalarplanError as exc:
        return exc


@pytest.fixture(scope="module")
def answers():
    """name -> (``solve_cssp``'s outcome, ``flat_dual_solve``'s cost), or their exceptions."""
    family = [(f"acc-{s}", acceptance_model(s)) for s in range(1200) if s != 277]
    family += [(f"wide-{s}", wide_outcome_model(s)) for s in range(30)]
    out = {}
    for name, model in family:
        exact = _attempt(flat_dual_solve, model)
        out[name] = (_attempt(solve_cssp, model),
                     exact if isinstance(exact, Exception) else float(exact[1][0]))
    return out


def _solved(answers):
    """(name, outcome, exact primary cost) of the instances both sides solve."""
    return [(name, out, c0) for name, (out, c0) in answers.items()
            if not isinstance(out, Exception) and not isinstance(c0, Exception)]


def test_answers_match_the_exact_lp(answers):
    assert len(answers) == 1229
    wrong, raised = [], []
    for name, (out, c0) in answers.items():
        if isinstance(out, Exception) or isinstance(c0, Exception):
            if type(out) is not type(c0):
                wrong.append(f"{name}: {out!r} against {c0!r}")
            else:
                raised.append((name, type(out).__name__))
        elif not abs(out.report.primary_cost - c0) <= COST_TOL:
            wrong.append(f"{name}: {out.report.primary_cost!r} against {c0!r}")
    assert not wrong, f"{len(wrong)} answers differ: " + "; ".join(wrong)
    assert raised == [(f"wide-{s}", "Infeasible") for s in (5, 7, 8, 11, 23)]


@pytest.mark.xfail(strict=True, raises=Nonconvergence,
                   reason="the first cutting-plane master goes to the multiplier cap, "
                          "where each lambda-SSP needs more backups than the budget "
                          "(ROADMAP items 3 and 4)")
def test_seed_277_matches_the_exact_lp():
    model = acceptance_model(277)
    out = solve_cssp(model, budget=10 ** 5)
    _, cost, _ = flat_dual_solve(model)
    assert abs(out.report.primary_cost - cost[0]) <= COST_TOL


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="L(lam) comes from a search that may stop on its residual "
                          "threshold, so it can exceed the exact price (ROADMAP item 5)")
def test_gap_is_nonnegative(answers):
    below = [f"{name} ({out.report.gap:.2e})" for name, out, _ in _solved(answers)
             if not out.report.gap >= -BOUND_TOL]
    assert not below, f"gap < -{BOUND_TOL} on {len(below)}: " + ", ".join(below)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="L(lam) comes from a search that may stop on its residual "
                          "threshold, so it is no sound lower bound (ROADMAP item 5)")
def test_lower_bound_is_at_most_the_exact_cost(answers):
    above = [f"{name} ({out.report.dual_bracket[0] - c0:.2e})"
             for name, out, c0 in _solved(answers)
             if not out.report.dual_bracket[0] <= c0 + BOUND_TOL]
    assert not above, f"L > C0 + {BOUND_TOL} on {len(above)}: " + ", ".join(above)
