"""Differential property test of ``solve_lp`` on small drawn LPs.

Each LP is checked byte for byte against the full-tableau reference in
``oracles.py`` and, where scipy is importable, for status and objective
against HiGHS.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from conftest import lp_of  # noqa: E402
from oracles import reference_solve_lp  # noqa: E402
from scalarplan.linalg import INFEASIBLE, OPTIMAL, UNBOUNDED, LinearProgram, solve_lp  # noqa: E402

HIGHS_STATUS = {OPTIMAL: 0, INFEASIBLE: 2, UNBOUNDED: 3}


@st.composite
def small_lps(draw):
    """Up to 6 variables and 6 rows with integer coefficients in [-3, 3].

    The right-hand sides are the rows' activities at a drawn nonnegative
    point, each row turned so its right-hand side is nonnegative, plus a
    drawn slack on ``<=`` rows and, rarely, a unit shift on ``=`` rows that
    may make the LP infeasible.  Some ``=`` rows are repeated.
    """
    n = draw(st.integers(0, 6))
    m = draw(st.integers(0, 6))
    ints = st.integers(-3, 3)
    rows = np.array(draw(st.lists(st.lists(ints, min_size=n, max_size=n),
                                  min_size=m, max_size=m)), dtype=float).reshape(m, n)
    point = np.array(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)), dtype=float)
    equal = np.array(draw(st.lists(st.booleans(), min_size=m, max_size=m)), dtype=bool)
    extra = np.array(draw(st.lists(st.integers(0, 2), min_size=m, max_size=m)), dtype=float)
    shift = draw(st.integers(0, 4)) == 0
    rows *= np.where(rows @ point < 0, -1.0, 1.0)[:, None]
    rhs = rows @ point + np.where(equal, shift, extra)
    repeats = np.flatnonzero(equal)[:6 - m]
    if repeats.size and draw(st.booleans()):
        rows = np.vstack((rows, rows[repeats]))
        rhs = np.append(rhs, rhs[repeats])
        equal = np.append(equal, equal[repeats])
    objective = np.array(draw(st.lists(ints, min_size=n, max_size=n)), dtype=float)
    return LinearProgram(draw(st.sampled_from(["min", "max"])), objective, rows, rhs, equal)


EXAMPLES = (
    lp_of("min", [], [[], []], [0.0, 0.0], [True, True]),
    lp_of("min", [], [[]], [1.0], [True]),
    lp_of("max", [1.0, 1.0], [[1.0, 1.0], [1.0, 1.0]], [2.0, 2.0], [True, True]),
    lp_of("max", [1.0, -1.0], [[1.0, -1.0]], [0.0], [False]),
)


def with_examples(test):
    for case in EXAMPLES:
        test = example(case)(test)
    return settings(derandomize=True, max_examples=200, deadline=None)(
        given(small_lps())(test))


@with_examples
def test_solve_lp_matches_reference(lp):
    got = solve_lp(lp)
    want = reference_solve_lp(lp)
    assert (got.status, got.pivots, repr(got.objective)) == \
        (want.status, want.pivots, repr(want.objective))
    assert (got.values is None) == (want.values is None)
    if got.values is not None:
        assert got.values.tobytes() == want.values.tobytes()


@with_examples
def test_solve_lp_matches_highs(lp):
    optimize = pytest.importorskip("scipy.optimize")
    got = solve_lp(lp)
    if lp.n_vars == 0:
        return   # linprog takes no empty objective
    c = lp.objective if lp.sense == "min" else -lp.objective
    eq, le = lp.equal, ~lp.equal
    out = optimize.linprog(c, A_ub=lp.rows[le] if le.any() else None,
                           b_ub=lp.rhs[le] if le.any() else None,
                           A_eq=lp.rows[eq] if eq.any() else None,
                           b_eq=lp.rhs[eq] if eq.any() else None,
                           bounds=(0, None), method="highs")
    assert HIGHS_STATUS[got.status] == out.status, out.message
    if got.status == OPTIMAL:
        assert got.objective == pytest.approx(out.fun if lp.sense == "min" else -out.fun,
                                              abs=1e-7)
