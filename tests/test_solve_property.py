"""Property test of ``solve_cssp`` on small drawn documents.

Each document has 2-6 states, ``n`` from 0 to 2 and integer costs; its
outcome lists hold outcomes of probability 0, repeated targets and
self-loops, and some states have no action.  Each is solved as it is and
with the penalty transform.  A document loads or raises MalformedModel.
A solve answers or raises a ScalarplanError; an answer's policy is priced
within 1e-9 of the report by ``evaluate_policy``, meets the bounds and
costs what ``flat_dual_solve`` finds within 1e-6, and a solve that raises
anything but UnreachableGoal raises what the exact LP raises.
UnreachableGoal may end a solve that the exact LP answers: the pipeline
assumes that every reachable state can reach a goal.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from conftest import ZERO_MASS_DEAD_END, ZERO_MASS_TRAP  # noqa: E402
from scalarplan.errors import MalformedModel, ScalarplanError, UnreachableGoal  # noqa: E402
from scalarplan.extract import flat_dual_solve  # noqa: E402
from scalarplan.model import (  # noqa: E402
    evaluate_policy,
    feasibility_check,
    finite_penalty_transform,
    load_model,
)
from scalarplan.solver import solve_cssp  # noqa: E402

BUDGET = 10 ** 4


@st.composite
def documents(draw):
    """States ``s0``.. with the last the goal; 0-2 actions per other state.

    An action has 1-3 outcomes with drawn targets and integer weights 0-3,
    normalised; primary costs are 1-5, secondary costs 0-5, bounds 0-10.
    """
    def ints(lo, hi, k):
        return draw(st.lists(st.integers(lo, hi), min_size=k, max_size=k))

    states, n = draw(st.integers(2, 6)), draw(st.integers(0, 2))
    names = [f"s{i}" for i in range(states)]
    actions = []
    for source in names[:-1]:
        for a in range(draw(st.integers(0, 2))):
            k = draw(st.integers(1, 3))
            weights = ints(0, 3, k)
            weights[0] += not any(weights)
            actions.append({
                "name": f"a{a}", "source": source, "cost": ints(1, 5, 1) + ints(0, 5, n),
                "outcomes": [{"target": names[t], "prob": w / sum(weights)}
                             for t, w in zip(ints(0, states - 1, k), weights)]})
    return {"states": names, "initial": names[0], "goals": [names[-1]], "n": n,
            "bounds": [float(b) for b in ints(0, 10, n)], "actions": actions}


def _attempt(solve, model):
    try:
        return solve(model)
    except ScalarplanError as exc:
        return exc


def check_solve(model):
    out = _attempt(lambda m: solve_cssp(m, budget=BUDGET), model)
    exact = _attempt(flat_dual_solve, model)
    if isinstance(out, UnreachableGoal):
        return
    if isinstance(out, Exception):
        assert type(out) is type(exact), (out, exact)
        return
    cost = np.array([out.report.primary_cost] + out.report.secondary_costs)
    assert np.abs(evaluate_policy(model, out.policy) - cost).max() <= 1e-9
    assert feasibility_check(model, cost)
    assert not isinstance(exact, Exception), exact
    assert abs(float(exact[1][0]) - cost[0]) <= 1e-6


@example(doc=ZERO_MASS_TRAP, penalty=10)
@example(doc=ZERO_MASS_DEAD_END, penalty=10)
@settings(derandomize=True, max_examples=300, deadline=None)
@given(doc=documents(), penalty=st.integers(1, 30))
def test_solves_are_priced_feasible_and_optimal(doc, penalty):
    try:
        model = load_model(doc)
    except MalformedModel:
        return
    check_solve(model)
    check_solve(finite_penalty_transform(model, [float(penalty)] + [1.0] * model.n))
