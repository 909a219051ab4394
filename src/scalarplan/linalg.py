"""Dense linear-system and linear-programming solvers.

Dense linear systems go to LAPACK through ``np.linalg.solve``, refined once.
Policy evaluation and occupation measures solve a policy's system one
strongly connected block at a time (``model``), so only a block of several
states comes here, as its own dense ``I - P``.  The random generator gives the
block solve its witness's whole envelope as one block, keeping its documents'
bytes.  The LP solver is a two-phase tableau simplex over dense numpy
arrays.  It serves the exact occupation-measure solve, the policy mixture's
restricted master and the cutting-plane master, all without an external
solver, and each of them builds the one LP shape it takes: ``x >= 0`` and
one dense block of rows with nonnegative right-hand sides, in which a mask
marks the ``=`` rows and the others are ``<=``.  Instances here are desk
scale (at most a few thousand variables), so the dense tableau is
deliberate: every pivot is auditable.  The tableau holds the rows, each
written once, one slack column per ``<=`` row, the right-hand side and the
objective row; artificial columns are never stored.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

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

OPTIMAL, INFEASIBLE, UNBOUNDED = "Optimal", "Infeasible", "Unbounded"


@dataclass
class LinearProgram:
    """Dense LP: ``sense`` of ``objective @ x`` over ``x >= 0``, subject to
    ``rows @ x = rhs`` on the rows ``equal`` marks and ``rows @ x <= rhs`` on
    the others.

    ``sense`` is ``'min'`` or ``'max'``, ``rows`` an ``(m, n)`` array and
    ``rhs`` nonnegative.  A wrong sense, mismatched shapes, a non-finite
    objective or row entry and a negative or non-finite right-hand side
    raise ValueError.
    """

    sense: str
    objective: np.ndarray
    rows: np.ndarray
    rhs: np.ndarray
    equal: np.ndarray

    def __post_init__(self) -> None:
        if self.sense not in ("min", "max"):
            raise ValueError(f"sense must be 'min' or 'max', got {self.sense!r}")
        self.objective = np.asarray(self.objective, dtype=float)
        self.rows = np.asarray(self.rows, dtype=float)
        self.rhs = np.asarray(self.rhs, dtype=float)
        self.equal = np.asarray(self.equal, dtype=bool)
        m = self.rhs.shape[:1]
        if self.objective.ndim != 1 or self.rhs.ndim != 1 or self.equal.shape != m \
                or self.rows.shape != m + self.objective.shape:
            raise ValueError(
                f"shapes do not match: objective {self.objective.shape}, rows "
                f"{self.rows.shape}, rhs {self.rhs.shape}, equal {self.equal.shape}")
        if not np.isfinite(self.objective).all():
            raise ValueError("objective must be finite")
        if not np.isfinite(self.rows).all():
            raise ValueError("row coefficients must be finite")
        if not (np.isfinite(self.rhs) & (self.rhs >= 0)).all():
            raise ValueError("rhs must be finite and nonnegative")

    @property
    def n_vars(self) -> int:
        return len(self.objective)


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


def solve_lp(lp: LinearProgram) -> LpSolution:
    """Two-phase dense simplex.

    Dantzig pricing for the first ``3 * (rows + cols)`` pivots of each phase,
    Bland's rule afterwards so degenerate instances terminate.  ``cols``
    counts one artificial column per ``=`` row.  The tableau stores none,
    since neither phase prices them: each ``=`` row's artificial is only an
    id in ``basis``, past the slack columns, which follow the ``<=`` rows in
    order.  Bland's row tie-break reads those ids, and phase 2 skips a
    redundant row whose artificial stays basic.
    """
    n = lp.n_vars
    m = len(lp.rhs)
    slack_rows = np.flatnonzero(~lp.equal)
    width = n + len(slack_rows)
    t = np.zeros((m + 1, width + 1))
    t[:m, :n] = lp.rows
    t[:m, -1] = lp.rhs
    basis = np.empty(m, dtype=int)
    basis[slack_rows] = np.arange(n, width)
    t[slack_rows, basis[slack_rows]] = 1.0
    basis[lp.equal] = np.arange(width, n + m)

    tab = _Tableau(t, basis)
    total = n + m   # the column count with artificials
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
    cvec = lp.objective
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
    """A solution reported Optimal must satisfy its rows and ``x >= 0``.

    Only a row that misses by more than ``FEASIBILITY_TOL`` is sized, as
    ``1 + |rhs_i| + |rows_i| @ |x|``, and measured against that: a master's
    cut rows reach about 1e7 near the multiplier cap.  ``x >= 0`` is held to
    the absolute tolerance, and a NaN always fails.
    """
    x = sol.values
    excess = lp.rows @ x - lp.rhs
    excess[lp.equal] = np.abs(excess[lp.equal])
    bad = np.flatnonzero(~(excess <= FEASIBILITY_TOL))
    excess[bad] /= 1.0 + np.abs(lp.rhs[bad]) + np.abs(lp.rows[bad]) @ np.abs(x)
    worst = np.max([np.max(excess, initial=0.0), np.max(-x, initial=0.0)])
    if not worst <= FEASIBILITY_TOL:
        raise NumericalBreakdown(
            f"simplex returned a point violating constraints by {worst:.3e}")
