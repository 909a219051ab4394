"""Dense linear-system and linear-programming solvers.

Dense linear systems go to LAPACK through ``np.linalg.solve``, refined once.
Policy evaluation and occupation measures solve a policy's system one
strongly connected block at a time (``model``), so only a block of several
states comes here, as its own dense ``I - P``; the random generator prices
its witness policy with one whole-envelope solve, which keeps its documents'
bytes.  The LP solver is a two-phase tableau simplex over dense numpy
arrays.  It serves the exact occupation-measure solve, the policy mixture's
restricted master and the cutting-plane master, all without an external
solver.  Instances here are desk scale (at most a few thousand variables),
so the dense tableau is deliberate: every pivot is auditable.  The tableau
holds the rows, each written once with a nonnegative right-hand side, one
slack column per ``<=`` row, one surplus column per ``>=`` row, the
right-hand side and the objective row; artificial columns are never stored.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import NumericalBreakdown, SingularMatrix

PIVOT_TOL = 1e-12
FEASIBILITY_TOL = 1e-7


# ---------------------------------------------------------------------------
# dense linear systems
# ---------------------------------------------------------------------------

def solve_linear_system(a, b):
    """Solve ``a @ x = b`` with LAPACK's LU plus one refinement step.

    ``b`` may be a vector or a matrix of stacked right-hand sides.  The result
    satisfies ``||a @ x - b||_inf <= 1e-9 * (1 + ||b||_inf)`` on reasonably
    conditioned systems.  Raises SingularMatrix when LAPACK meets an exactly
    zero pivot or the result is not finite.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got {a.shape}")
    if b.shape[0] != a.shape[0]:
        raise ValueError("right-hand side does not match matrix dimension")
    if a.shape[0] == 0:
        return b.copy()
    try:
        x = np.linalg.solve(a, b)
        x += np.linalg.solve(a, b - a @ x)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix(str(exc)) from None
    if not np.all(np.isfinite(x)):
        raise SingularMatrix("solution is not finite")
    return x


# ---------------------------------------------------------------------------
# linear programs
# ---------------------------------------------------------------------------

LESS, EQUAL, GREATER = "<=", "=", ">="

OPTIMAL, INFEASIBLE, UNBOUNDED = "Optimal", "Infeasible", "Unbounded"


@dataclass
class LinearProgram:
    """Dense LP: ``sense`` objective over ``n_vars`` variables with row constraints.

    ``sense`` is ``'min'`` or ``'max'``.  Every variable has lower bound 0;
    ``upper`` optionally caps them (``inf`` for no cap).  A wrong sense,
    an objective or ``upper`` of the wrong shape, a NaN cap and a
    non-finite row entry raise ValueError.
    """

    n_vars: int
    sense: str
    objective: np.ndarray
    rows: list = field(default_factory=list)
    upper: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if self.sense not in ("min", "max"):
            raise ValueError(f"sense must be 'min' or 'max', got {self.sense!r}")
        self.objective = np.asarray(self.objective, dtype=float)
        if self.objective.shape != (self.n_vars,):
            raise ValueError(
                f"objective shape {self.objective.shape} != ({self.n_vars},)")
        if self.upper is not None:
            self.upper = np.asarray(self.upper, dtype=float)
            if self.upper.shape != (self.n_vars,) or np.isnan(self.upper).any():
                raise ValueError(f"upper must be {self.n_vars} bounds, none NaN")

    def add_row(self, coeffs: Sequence[float], rel: str, rhs: float) -> None:
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (self.n_vars,):
            raise ValueError(f"row width {coeffs.shape} != n_vars {self.n_vars}")
        if rel not in (LESS, EQUAL, GREATER):
            raise ValueError(f"unknown relation {rel!r}")
        if not np.isfinite(coeffs).all():
            raise ValueError("coefficients must be finite")
        if not np.isfinite(rhs):
            raise ValueError("rhs must be finite")
        self.rows.append((coeffs, rel, float(rhs)))


@dataclass
class LpSolution:
    status: str
    values: Optional[np.ndarray] = None
    objective: Optional[float] = None
    pivots: int = 0


class _Tableau:
    """Shared pivoting machinery for both simplex phases."""

    def __init__(self, t: np.ndarray, basis: np.ndarray):
        self.t = t
        self.basis = basis
        self.pivots = 0

    def pivot(self, row: int, col: int) -> None:
        t = self.t
        t[row] /= t[row, col]
        pivot_row = t[row]
        for r in np.flatnonzero(t[:, col]):
            if r != row:
                t[r] -= t[r, col] * pivot_row
        # sub-tolerance negative rhs noise breaks the anti-cycling argument;
        # snap it back to the degenerate vertex it stands for
        m = len(self.basis)
        rhs = t[:m, -1]
        rhs[np.abs(rhs) < 1e-10] = 0.0
        self.basis[row] = col
        self.pivots += 1

    def run(self, bland_after: int, cap: int) -> str:
        """Pivot until the objective row has no negative reduced cost."""
        t = self.t
        m = t.shape[0] - 1
        start = self.pivots
        while True:
            z = t[-1, :-1]
            use_bland = (self.pivots - start) >= bland_after
            neg = np.flatnonzero(z < -1e-9)
            if neg.size == 0:
                return OPTIMAL
            if use_bland:
                col = int(neg[0])
            else:
                col = int(neg[np.argmin(z[neg])])
            colvals = t[:m, col]
            rhs = np.maximum(t[:m, -1], 0.0)
            # entries far below the column's own scale are elimination noise;
            # pivoting on one divides the row by noise and wrecks the tableau
            eligible = max(PIVOT_TOL,
                           1e-9 * float(np.max(np.abs(colvals), initial=0.0)))
            rows = np.flatnonzero(colvals > eligible)
            if rows.size == 0:
                if np.any(colvals > PIVOT_TOL):
                    raise NumericalBreakdown(
                        f"only sub-tolerance pivots available in column {col}")
                return UNBOUNDED
            ratios = rhs[rows] / colvals[rows]
            best = ratios.min()
            # tie slack measured in rhs units: admitting a row may push the
            # true-minimum row's basic value negative by slack * colval, so
            # the window has to scale with the column, not with the ratio
            slack = (ratios - best) * colvals[rows]
            tied = rows[slack <= 1e-9]
            if use_bland:
                row = int(tied[np.argmin(self.basis[tied])])
            else:
                row = int(tied[np.argmax(colvals[tied])])  # largest pivot: stability
            self.pivot(row, col)
            if self.pivots - start > cap:
                raise NumericalBreakdown("pivot cap exceeded")


def _standardise(lp: LinearProgram):
    """The LP's rows plus one ``<=`` row per finite upper bound."""
    rows = list(lp.rows)
    if lp.upper is not None:
        upper = np.asarray(lp.upper, dtype=float)
        for j in np.flatnonzero(np.isfinite(upper)):
            c = np.zeros(lp.n_vars)
            c[j] = 1.0
            rows.append((c, LESS, upper[j]))
    return rows


_FLIPPED = {LESS: GREATER, GREATER: LESS, EQUAL: EQUAL}


def solve_lp(lp: LinearProgram) -> LpSolution:
    """Two-phase dense simplex.

    Dantzig pricing for the first ``3 * (rows + cols)`` pivots of each phase,
    Bland's rule afterwards so degenerate instances terminate.  ``cols``
    counts one artificial column per ``=`` and ``>=`` row.  The tableau
    stores none, since neither phase prices them: each such row's
    artificial is only an id in ``basis``, past the real columns.  Bland's
    row tie-break reads those ids, and phase 2 skips a redundant row whose
    artificial stays basic.
    """
    rows = _standardise(lp)
    n = lp.n_vars
    m = len(rows)
    # orient rows so every rhs is nonnegative
    rels = [_FLIPPED[rel] if b < 0 else rel for _, rel, b in rows]
    n_slack = rels.count(LESS)
    n_surp = rels.count(GREATER)
    width = n + n_slack + n_surp
    t = np.zeros((m + 1, width + 1))
    basis = np.full(m, -1)
    s_at, u_at, a_at = n, n + n_slack, width
    for i, ((c, _, b), rel) in enumerate(zip(rows, rels)):
        if b < 0:
            np.negative(c, out=t[i, :n])
            t[i, -1] = -b
        else:
            t[i, :n] = c
            t[i, -1] = b
        if rel == LESS:
            t[i, s_at] = 1.0
            basis[i] = s_at
            s_at += 1
            continue
        if rel == GREATER:
            t[i, u_at] = -1.0
            u_at += 1
        basis[i] = a_at
        a_at += 1

    tab = _Tableau(t, basis)
    total = a_at   # the column count with artificials
    bland_after = 3 * (m + total)
    cap = max(200_000, 200 * (m + total))

    # phase 1: drive artificial mass to zero
    if total > width:
        for i in np.flatnonzero(basis >= width):
            t[-1] -= t[i]
        status = tab.run(bland_after, cap)
        if status != OPTIMAL or -t[-1, -1] > FEASIBILITY_TOL:
            return LpSolution(INFEASIBLE, pivots=tab.pivots)
        # pivot surviving artificials out of the basis where possible,
        # onto the largest real coefficient in the row
        for i in np.flatnonzero(basis >= width) if width else ():
            row_abs = np.abs(t[i, :width])
            j = int(np.argmax(row_abs))
            if row_abs[j] > PIVOT_TOL:
                tab.pivot(i, j)
            # else: redundant row, its artificial stays basic at 0

    # phase 2: install the real objective in reduced form
    cvec = np.asarray(lp.objective, dtype=float)
    t[-1, :] = 0.0
    t[-1, :n] = cvec if lp.sense == "min" else -cvec
    for i in range(m):
        if basis[i] < width and t[-1, basis[i]] != 0.0:
            t[-1] -= t[-1, basis[i]] * t[i]
    status = tab.run(bland_after, cap)
    if status == UNBOUNDED:
        return LpSolution(UNBOUNDED, pivots=tab.pivots)

    values = np.zeros(n)
    for i in range(m):
        if basis[i] < n:
            values[basis[i]] += t[i, -1]
    obj = float(cvec @ values)
    sol = LpSolution(OPTIMAL, values, obj, tab.pivots)
    _verify(lp, sol)
    return sol


def _verify(lp: LinearProgram, sol: LpSolution) -> None:
    """A solution reported Optimal must actually satisfy the rows."""
    worst = check_lp_solution(lp, sol)
    if worst > FEASIBILITY_TOL:
        raise NumericalBreakdown(
            f"simplex returned a point violating constraints by {worst:.3e}")


def check_lp_solution(lp: LinearProgram, sol: LpSolution) -> float:
    """Return the worst constraint violation of an Optimal solution.

    A row whose activity is not finite counts as violated by infinity.
    """
    if sol.status != OPTIMAL:
        raise ValueError("only Optimal solutions can be checked")
    worst = 0.0
    x = sol.values
    for c, rel, rhs in lp.rows:
        v = float(c @ x)
        if not np.isfinite(v):
            return float("inf")
        if rel == LESS:
            worst = max(worst, v - rhs)
        elif rel == GREATER:
            worst = max(worst, rhs - v)
        else:
            worst = max(worst, abs(v - rhs))
    worst = max(worst, float(np.max(-x, initial=0.0)))
    if lp.upper is not None:
        up = np.asarray(lp.upper, dtype=float)
        fin = np.isfinite(up)
        if fin.any():
            worst = max(worst, float(np.max((x - up)[fin], initial=0.0)))
    return worst
