"""Condensed primal simplex with Dantzig pricing, for feasible-origin LPs,
resumed by dual-simplex pivots when rows are added at an optimum.

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

Constraint generation passes ``cuts``: at each optimum it may return rows
that the optimum violates.  Each joins the tableau written in the current
nonbasic columns, its slack basic as the next variable number, so the basis
stays optimal (non-negative reduced costs) but no longer feasible.
Dual-simplex pivots (Lemke, Naval Res. Logist. Q. 1954) restore
feasibility: the leaving row has the most negative right-hand side, the
entering column the least ratio of reduced cost to the row's negative
entry, ties to the smallest variable, and a degenerate run as long as the
row count switches the leaving row to Bland's choice.  Primal pivots then
resume.  A cut that no x >= 0 satisfies ends the solve as infeasible.  The
first optimum of a solve with cuts is sought with distinct offsets of about
1e-7 on the starting right-hand sides (the perturbation method of Charnes,
Econometrica 1952), which keeps its primal pivots off degenerate vertices;
they come out exactly before the first cut, by the starting rows' slack
columns, and dual pivots repair any row they leave infeasible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["LpResult", "solve_lp", "OPTIMAL", "UNBOUNDED", "INFEASIBLE"]

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"
INFEASIBLE = "infeasible"

_PIVOT_TOL = 1e-9
_COST_TOL = 1e-9
_FEAS_TOL = 1e-11  # dual pivots leave no right-hand side below -_FEAS_TOL
_PERTURB = 1e-7  # scale of the starting right-hand sides' offsets in a solve with cuts


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
    return int(col) if tied.size == 1 else int(tied[nonbasic[tied].argmin()])


def _bland_entering(cost, nonbasic):
    """Column of the smallest variable with reduced cost < -tol."""
    idx = (cost[:-1] < -_COST_TOL).nonzero()[0]
    return int(idx[nonbasic[idx].argmin()]) if idx.size else -1


def _bland_leaving(column, rhs, basis):
    """Min-ratio row, ties broken by smallest basic variable index, and its
    ratio (the step); row -1 when the column is unbounded."""
    rows = (column > _PIVOT_TOL).nonzero()[0]
    if rows.size == 0:
        return -1, 0.0
    ratios = rhs[rows]
    ratios /= column[rows]
    best = ratios.min()
    tied = (ratios <= best + _PIVOT_TOL * (1.0 + abs(best))).nonzero()[0]
    pick = tied[0] if tied.size == 1 else tied[basis[rows[tied]].argmin()]
    return int(rows[pick]), ratios[pick]


def _pivot(tab, basis, nonbasic, row, col):
    """Swap the variables basic in ``row`` and nonbasic in ``col``.

    Column ``col`` first takes the leaving variable's unit column, so that
    every entry gets the float operations of the full tableau's pivot:
    row / p, then the rank-1 update, which the reduced costs in the last
    row of ``tab`` take alike.
    """
    factors = tab[:, col].copy()
    pivot = factors[row]
    factors[row] = 0.0
    tab[:, col] = 0.0
    tab[row, col] = 1.0
    pivot_row = tab[row]
    pivot_row /= pivot
    tab -= factors[:, None] * pivot_row
    basis[row], nonbasic[col] = nonbasic[col], basis[row]


def _primal(tab, basis, nonbasic):
    """Primal pivots to an optimum; returns (pivots, bounded)."""
    T, cost = tab[:-1], tab[-1]
    rhs = T[:, -1]
    pivots = degenerate = 0
    while True:
        entering = _bland_entering if degenerate >= len(T) else _dantzig_entering
        col = entering(cost, nonbasic)
        if col < 0:
            return pivots, True
        row, step = _bland_leaving(T[:, col], rhs, basis)
        if row < 0:
            return pivots, False
        degenerate = degenerate + 1 if step <= _PIVOT_TOL else 0
        _pivot(tab, basis, nonbasic, row, col)
        pivots += 1


def _dual_leaving(rhs, basis, bland):
    """Row with the most negative right-hand side < -tol (smallest basic
    variable on ties), or under Bland's rule the infeasible row of the
    smallest basic variable; -1 when every row is feasible."""
    if bland:
        rows = (rhs < -_FEAS_TOL).nonzero()[0]
        return int(rows[basis[rows].argmin()]) if rows.size else -1
    row = rhs.argmin()
    if not rhs[row] < -_FEAS_TOL:
        return -1
    tied = (rhs == rhs[row]).nonzero()[0]
    return int(row) if tied.size == 1 else int(tied[basis[tied].argmin()])


def _dual_entering(pivot_row, cost, nonbasic):
    """Column of the least ratio cost_j / |T_rj| over T_rj < -tol, ties broken
    by smallest variable, and its ratio (the step); column -1 when none, so
    no x >= 0 satisfies the row."""
    cols = (pivot_row[:-1] < -_PIVOT_TOL).nonzero()[0]
    if cols.size == 0:
        return -1, 0.0
    ratios = np.maximum(cost[cols], 0.0)
    ratios /= -pivot_row[cols]
    best = ratios.min()
    tied = (ratios <= best + _PIVOT_TOL * (1.0 + best)).nonzero()[0]
    pick = tied[0] if tied.size == 1 else tied[nonbasic[cols[tied]].argmin()]
    return int(cols[pick]), ratios[pick]


def _dual(tab, basis, nonbasic):
    """Dual-simplex pivots (Lemke) until no right-hand side is below -tol,
    the reduced costs staying non-negative; returns (pivots, feasible).
    A run of degenerate pivots as long as the row count switches the leaving
    row to Bland's choice until the next pivot that moves the objective."""
    T, cost = tab[:-1], tab[-1]
    rhs = T[:, -1]
    pivots = degenerate = 0
    while True:
        row = _dual_leaving(rhs, basis, degenerate >= len(T))
        if row < 0:
            return pivots, True
        col, step = _dual_entering(T[row], cost, nonbasic)
        if col < 0:
            return pivots, False
        degenerate = degenerate + 1 if step <= _COST_TOL else 0
        _pivot(tab, basis, nonbasic, row, col)
        pivots += 1


def _append_rows(tab, basis, nonbasic, A, b):
    """Rows A x <= b written in the current nonbasic columns, a_N - a_B T with
    right-hand side b - a_B rhs, each with its slack basic as the next
    variable number, inserted above the reduced costs.  A covers the
    structurals only; slacks enter as zeros."""
    n_vars = A.shape[1]
    new = np.zeros((len(A), tab.shape[1]))
    cols = (nonbasic < n_vars).nonzero()[0]
    new[:, cols] = A[:, nonbasic[cols]]
    new[:, -1] = b
    rows = (basis < n_vars).nonzero()[0]
    new -= A[:, basis[rows]] @ tab[rows]
    first = n_vars + len(basis)
    tab = np.vstack([tab[:-1], new, tab[-1:]])
    return tab, np.concatenate([basis, np.arange(first, first + len(A))])


def _perturbation(n_rows):
    """Distinct offsets in [_PERTURB, 2 _PERTURB), one per row: the fractional
    parts of multiples of the golden ratio spread them evenly."""
    return _PERTURB * (1.0 + (np.arange(n_rows) * 0.6180339887498949) % 1.0)


def _shift_rhs(tab, basis, nonbasic, n_vars, delta):
    """Add ``delta`` to the right-hand sides of the starting rows, in place:
    the right-hand side column, objective included, moves by the starting
    rows' slack columns of the full tableau (a nonbasic slack's condensed
    column, a basic slack's unit vector) weighted by ``delta``."""
    first, stop = n_vars, n_vars + len(delta)
    cols = ((nonbasic >= first) & (nonbasic < stop)).nonzero()[0]
    tab[:, -1] += tab[:, cols] @ delta[nonbasic[cols] - first]
    rows = ((basis >= first) & (basis < stop)).nonzero()[0]
    tab[rows, -1] += delta[basis[rows] - first]


def _as_rows(A, b, n_vars):
    """A and b as float arrays, checked against the variable count and for finiteness."""
    A = np.atleast_2d(np.asarray(A, dtype=np.float64))
    b = np.asarray(b, dtype=np.float64).ravel()
    if A.shape[1] != n_vars:
        raise ValueError("c and A columns must agree in size")
    if b.shape[0] != A.shape[0]:
        raise ValueError("b must match the number of rows")
    if not (np.isfinite(A).all() and np.isfinite(b).all()):
        raise ValueError("LP data must be finite")
    return A, b


def solve_lp(c, A, b, cuts=None) -> LpResult:
    """Minimize c.x over A x <= b, x >= 0; status is optimal, unbounded or
    infeasible (the last only through a cut).

    ``b`` must be non-negative, since the simplex starts at the origin.
    ``cuts(x)``, when given, is called at each optimum x and returns further
    rows (A_cut, b_cut) over the same variables, any sign of ``b_cut``
    allowed, or None when it has none; the returned x is the optimum at
    which it returned None.
    """
    c = np.asarray(c, dtype=np.float64).ravel()
    if not np.isfinite(c).all():
        raise ValueError("LP data must be finite")
    A, b = _as_rows(A, b, c.shape[0])
    n_rows, n_vars = A.shape
    if np.any(b < 0.0):
        raise ValueError("b must be non-negative: the simplex starts at the origin")

    # the condensed tableau [A | b] above the reduced costs of its nonbasic
    # columns, whose last entry is minus the objective, kept current by pivoting
    tab = np.zeros((n_rows + 1, n_vars + 1))
    tab[:-1, :-1] = A
    tab[:-1, -1] = b
    tab[-1, :-1] = c
    # with cuts, distinct tiny offsets on the starting right-hand sides keep
    # the primal pivots off degenerate vertices: rows that all pass through
    # the origin (a cone) otherwise stall them for many thousands of pivots.
    # The offsets come out again, exactly, before the first cut.
    delta = None if cuts is None else _perturbation(n_rows)
    if delta is not None:
        tab[:-1, -1] += delta
    # variables 0..n_vars-1 are the structurals, the rest the slacks
    basis = np.arange(n_vars, n_vars + n_rows)
    nonbasic = np.arange(n_vars)
    pivots, bounded = _primal(tab, basis, nonbasic)
    while True:
        if not bounded:
            return LpResult(UNBOUNDED, None, None, pivots)
        if delta is not None:
            _shift_rhs(tab, basis, nonbasic, n_vars, -delta)
            delta = None
        else:
            x = np.zeros(n_vars)
            structural = (basis < n_vars).nonzero()[0]
            x[basis[structural]] = tab[structural, -1]
            new = None if cuts is None else cuts(x)
            if new is None:
                return LpResult(OPTIMAL, x, float(c @ x), pivots)
            tab, basis = _append_rows(tab, basis, nonbasic, *_as_rows(*new, n_vars))
        dual_pivots, feasible = _dual(tab, basis, nonbasic)
        pivots += dual_pivots
        if not feasible:
            return LpResult(INFEASIBLE, None, None, pivots)
        primal_pivots, bounded = _primal(tab, basis, nonbasic)
        pivots += primal_pivots
