"""Condensed primal simplex with Dantzig pricing, for feasible-origin LPs.

The one LP solver behind exact 0-1 training and both risk-bound programs,
all built by ``solver.solve_box_lp`` in the one form

    minimize c . x   subject to   A x <= b,  x >= 0,  with b >= 0,

so the origin is a feasible vertex with the slacks as its basis.  The
tableau is condensed (Tucker's form; Dantzig, *Linear Programming and
Extensions*, 1963): it holds ``[A | b]``, one column per nonbasic variable,
and two index arrays name the variable basic in each row and the variable
nonbasic in each column.  The basic variables' unit columns carry no
information and are never stored, so a pivot, which swaps the entering and
the leaving variable in place, costs rows x columns.  Variables are
numbered structurals first, then slacks, and every rule breaks ties by that
number, so the pivots are those of the full tableau ``[A | I | b]``.

The entering variable has the most negative reduced cost (Dantzig's rule).
These LPs are highly degenerate, and Dantzig's rule alone can cycle, so
once a run of consecutive degenerate pivots reaches the row count the
variable is chosen by Bland's rule (Bland, Math. Oper. Res. 1977) until the
next pivot that moves.  A cycle needs an endless degenerate run, and during
one Bland's rule is finite.
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


def _dantzig_entering(cost, nonbasic):
    """Column with the most negative reduced cost < -tol, smallest variable on ties."""
    reduced = cost[:-1]
    col = reduced.argmin()
    if not reduced[col] < -_COST_TOL:
        return -1
    tied = (reduced == reduced[col]).nonzero()[0]
    return int(tied[nonbasic[tied].argmin()])


def _bland_entering(cost, nonbasic):
    """Column of the smallest variable with reduced cost < -tol."""
    idx = (cost[:-1] < -_COST_TOL).nonzero()[0]
    return int(idx[nonbasic[idx].argmin()]) if idx.size else -1


def _bland_leaving(column, rhs, basis):
    """Min-ratio row, ties broken by smallest basic variable index."""
    rows = np.nonzero(column > _PIVOT_TOL)[0]
    if rows.size == 0:
        return -1
    ratios = rhs[rows] / column[rows]
    best = ratios.min()
    tied = rows[ratios <= best + _PIVOT_TOL * (1.0 + abs(best))]
    return int(tied[np.argmin(basis[tied])])


def _pivot(T, cost, basis, nonbasic, row, col):
    """Swap the variables basic in ``row`` and nonbasic in ``col``.

    Column ``col`` first takes the leaving variable's unit column, so that
    every entry gets the float operations of the full tableau's pivot:
    row / p, then the rank-1 update (the reduced costs alike).
    """
    factors = T[:, col].copy()
    pivot = factors[row]
    factors[row] = 0.0
    T[:, col] = 0.0
    T[row, col] = 1.0
    pivot_row = T[row]
    pivot_row /= pivot
    T -= factors[:, None] * pivot_row
    gain = cost[col]
    cost[col] = 0.0
    cost -= gain * pivot_row
    basis[row], nonbasic[col] = nonbasic[col], basis[row]


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

    T = np.empty((n_rows, n_vars + 1))
    T[:, :-1] = A
    T[:, -1] = b
    # variables 0..n_vars-1 are the structurals, the rest the slacks
    basis = np.arange(n_vars, n_vars + n_rows)
    nonbasic = np.arange(n_vars)
    # reduced costs of the nonbasic columns, kept current by pivoting
    cost = np.zeros(n_vars + 1)
    cost[:-1] = c
    pivots = degenerate = 0
    while True:
        entering = _bland_entering if degenerate >= n_rows else _dantzig_entering
        col = entering(cost, nonbasic)
        if col < 0:
            break
        row = _bland_leaving(T[:, col], T[:, -1], basis)
        if row < 0:
            return LpResult(UNBOUNDED, None, None, pivots)
        step = T[row, -1] / T[row, col]
        degenerate = degenerate + 1 if step <= _PIVOT_TOL else 0
        _pivot(T, cost, basis, nonbasic, row, col)
        pivots += 1

    x = np.zeros(n_vars)
    structural = basis < n_vars
    x[basis[structural]] = T[structural, -1]
    return LpResult(OPTIMAL, x, float(c @ x), pivots)
