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

Two rules choose every pivot, each read on the tableau or on its
transpose.  Pricing takes the most negative value below a tolerance,
ties to the smallest variable; the ratio test takes, over the positive
divisors, the least ratio, ties within a tolerance to the smallest
variable.  A primal pivot prices the reduced costs to pick the entering
column (Dantzig's rule), then tests the right-hand sides over that column
to pick the leaving row.  These LPs are highly degenerate, and Dantzig's
rule alone can cycle, so once a run of consecutive degenerate pivots
reaches the row count pricing takes the smallest variable with a negative
value instead (Bland's rule; Bland, Math. Oper. Res. 1977) until the next
pivot that moves.  A cycle needs an endless degenerate run, and during
one Bland's rule is finite.

Constraint generation passes ``cuts``: at each optimum it may return rows
that the optimum violates.  Each joins the tableau written in the current
nonbasic columns, its slack basic as the next variable number, so the basis
stays optimal (non-negative reduced costs) but no longer feasible.
Dual-simplex pivots (Lemke, Naval Res. Logist. Q. 1954), the primal's
rules read on the transposed tableau, restore feasibility: pricing on the
right-hand sides picks the leaving row, the ratio test of the reduced costs
over the negated leaving row picks the entering column, and the same
degenerate runs switch pricing to Bland's rule.  Primal pivots then
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


def _most_negative(values, names, tol, bland):
    """Pricing: the index of the most negative value < -tol, smallest name on
    ties, or under Bland's rule the smallest name with a value < -tol; -1
    when no value is below -tol."""
    if bland:
        idx = (values < -tol).nonzero()[0]
        return int(idx[names[idx].argmin()]) if idx.size else -1
    i = values.argmin()
    if not values[i] < -tol:
        return -1
    tied = (values == values[i]).nonzero()[0]
    return int(i) if tied.size == 1 else int(tied[names[tied].argmin()])


def _min_ratio(numer, denom, names):
    """Ratio test: over denom > tol, the index of the least numer / denom,
    smallest name among the ratios within tol of it, and that ratio (the
    step); index -1 when no denom exceeds tol."""
    idx = (denom > _PIVOT_TOL).nonzero()[0]
    if idx.size == 0:
        return -1, 0.0
    ratios = numer[idx]
    ratios /= denom[idx]
    best = ratios.min()
    tied = (ratios <= best + _PIVOT_TOL * (1.0 + abs(best))).nonzero()[0]
    pick = tied[0] if tied.size == 1 else tied[names[idx[tied]].argmin()]
    return int(idx[pick]), ratios[pick]


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
    """Primal pivots to an optimum; returns (pivots, bounded).  A run of
    degenerate pivots as long as the row count switches pricing to Bland's
    rule until the next pivot that moves."""
    T, cost = tab[:-1], tab[-1]
    rhs = T[:, -1]
    pivots = degenerate = 0
    while True:
        col = _most_negative(cost[:-1], nonbasic, _COST_TOL, degenerate >= len(T))
        if col < 0:
            return pivots, True
        row, step = _min_ratio(rhs, T[:, col], basis)
        if row < 0:
            return pivots, False
        degenerate = degenerate + 1 if step <= _PIVOT_TOL else 0
        _pivot(tab, basis, nonbasic, row, col)
        pivots += 1


def _dual(tab, basis, nonbasic):
    """Dual-simplex pivots (Lemke) until no right-hand side is below -tol,
    the reduced costs staying non-negative; returns (pivots, feasible).
    Degenerate runs switch pricing to Bland's rule as in ``_primal``."""
    T, cost = tab[:-1], tab[-1]
    rhs = T[:, -1]
    pivots = degenerate = 0
    while True:
        row = _most_negative(rhs, basis, _FEAS_TOL, degenerate >= len(T))
        if row < 0:
            return pivots, True
        col, step = _min_ratio(np.maximum(cost[:-1], 0.0), -T[row, :-1], nonbasic)
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
