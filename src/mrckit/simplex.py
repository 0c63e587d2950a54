"""Dense primal simplex with Dantzig pricing, for feasible-origin LPs.

The one LP solver behind exact 0-1 training and both risk-bound programs,
all built by ``solver.solve_box_lp`` in the one form

    minimize c . x   subject to   A x <= b,  x >= 0,  with b >= 0,

so the origin is a feasible vertex: the tableau is ``[A | I | b]`` with the
slacks as the starting basis.  The entering column has the most negative
reduced cost (Dantzig's rule).  These LPs are highly degenerate, and
Dantzig's rule alone can cycle, so once a run of consecutive degenerate
pivots reaches the row count the column is chosen by Bland's rule (Bland,
Math. Oper. Res. 1977) until the next pivot that moves.  A cycle needs an
endless degenerate run, and during one Bland's rule is finite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["LpResult", "solve_lp", "OPTIMAL", "UNBOUNDED"]

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"

_PIVOT_TOL = 1e-9
_COST_TOL = 1e-9


@dataclass(frozen=True)
class LpResult:
    status: str
    x: np.ndarray | None
    value: float | None
    pivots: int  # every pivot made, Bland fallback pivots included


def _dantzig_entering(cost):
    """Column with the most negative reduced cost < -tol, smallest index on ties."""
    col = int(np.argmin(cost[:-1]))
    return col if cost[col] < -_COST_TOL else -1


def _bland_entering(cost):
    """Smallest-index column with reduced cost < -tol."""
    idx = np.nonzero(cost[:-1] < -_COST_TOL)[0]
    return int(idx[0]) if idx.size else -1


def _bland_leaving(column, rhs, basis):
    """Min-ratio row, ties broken by smallest basic variable index."""
    rows = np.nonzero(column > _PIVOT_TOL)[0]
    if rows.size == 0:
        return -1
    ratios = rhs[rows] / column[rows]
    best = ratios.min()
    tied = rows[ratios <= best + _PIVOT_TOL * (1.0 + abs(best))]
    return int(tied[np.argmin(basis[tied])])


def _pivot(T, basis, row, col):
    T[row] /= T[row, col]
    factors = T[:, col].copy()
    factors[row] = 0.0
    T -= np.outer(factors, T[row])
    basis[row] = col


def solve_lp(c, A, b) -> LpResult:
    """Minimize c.x over A x <= b, x >= 0; status is optimal or unbounded.

    ``b`` must be non-negative, since the simplex starts at the origin.
    """
    c = np.asarray(c, dtype=np.float64).ravel()
    A = np.atleast_2d(np.asarray(A, dtype=np.float64))
    b = np.asarray(b, dtype=np.float64).ravel()
    n_rows, n_vars = A.shape
    if c.shape[0] != n_vars:
        raise ValueError("c and A columns must agree in size")
    if b.shape[0] != n_rows:
        raise ValueError("b must match the number of rows")
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b)) and np.all(np.isfinite(c))):
        raise ValueError("LP data must be finite")
    if np.any(b < 0.0):
        raise ValueError("b must be non-negative: the simplex starts at the origin")

    T = np.zeros((n_rows, n_vars + n_rows + 1))
    T[:, :n_vars] = A
    T[:, n_vars:-1] = np.eye(n_rows)
    T[:, -1] = b
    basis = np.arange(n_vars, n_vars + n_rows)
    # reduced costs, kept current by pivoting; the slacks cost nothing
    cost = np.zeros(n_vars + n_rows + 1)
    cost[:n_vars] = c
    pivots = degenerate = 0
    while True:
        entering = _bland_entering if degenerate >= n_rows else _dantzig_entering
        col = entering(cost)
        if col < 0:
            break
        row = _bland_leaving(T[:, col], T[:, -1], basis)
        if row < 0:
            return LpResult(UNBOUNDED, None, None, pivots)
        step = T[row, -1] / T[row, col]
        degenerate = degenerate + 1 if step <= _PIVOT_TOL else 0
        _pivot(T, basis, row, col)
        cost -= cost[col] * T[row]
        pivots += 1

    x = np.zeros(n_vars)
    structural = basis < n_vars
    x[basis[structural]] = T[structural, -1]
    return LpResult(OPTIMAL, x, float(c @ x), pivots)
