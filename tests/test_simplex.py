"""The condensed simplex against scipy (values) and against a full-tableau
simplex (every pivot, bit for bit), and its memory on tall programs."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import linprog

from mrckit import features, solver
from mrckit.datasets import lattice_joint
from mrckit.simplex import OPTIMAL, UNBOUNDED, solve_lp

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 60
TOL = 1e-9  # the simplex's pivot and reduced-cost tolerances


def full_tableau_lp(c, A, b):
    """The oracle: the simplex on the full tableau [A | I | b], slacks basic
    at the start, column index = variable index, with the same pricing,
    ratio test and tolerances as ``solve_lp``.  Returns its result fields."""
    n_rows, n_vars = A.shape
    T = np.zeros((n_rows, n_vars + n_rows + 1))
    T[:, :n_vars], T[:, n_vars:-1], T[:, -1] = A, np.eye(n_rows), b
    basis = np.arange(n_vars, n_vars + n_rows)
    cost = np.zeros(n_vars + n_rows + 1)
    cost[:n_vars] = c
    pivots = degenerate = 0
    while True:
        if degenerate >= n_rows:  # Bland: the smallest improving index
            improving = np.flatnonzero(cost[:-1] < -TOL)
            col = int(improving[0]) if improving.size else -1
        else:  # Dantzig: the most negative, smallest index on ties
            col = int(np.argmin(cost[:-1]))
            col = col if cost[col] < -TOL else -1
        if col < 0:
            break
        rows = np.flatnonzero(T[:, col] > TOL)
        if rows.size == 0:
            return UNBOUNDED, None, None, pivots
        ratios = T[rows, -1] / T[rows, col]
        best = ratios.min()
        tied = rows[ratios <= best + TOL * (1.0 + abs(best))]
        row = int(tied[np.argmin(basis[tied])])
        degenerate = degenerate + 1 if T[row, -1] / T[row, col] <= TOL else 0
        T[row] /= T[row, col]
        factors = T[:, col].copy()
        factors[row] = 0.0
        T -= np.outer(factors, T[row])
        cost -= cost[col] * T[row]
        basis[row] = col
        pivots += 1
    x = np.zeros(n_vars)
    x[basis[basis < n_vars]] = T[basis < n_vars, -1]
    return OPTIMAL, x, float(c @ x), pivots


def assert_same_run(c, A, b):
    """Same status, pivot count, x and value as the full tableau, bit for bit."""
    mine = solve_lp(c, A, b)
    status, x, value, pivots = full_tableau_lp(c, A, b)
    assert (mine.status, mine.pivots) == (status, pivots)
    if status == OPTIMAL:
        assert np.array_equal(mine.x, x)
        assert mine.value == value


def random_lp(n, m, zero_frac, copies, seed):
    """A feasible-origin LP, degenerate where right-hand sides are zero."""
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(m, n)).round(2)
    b = np.abs(rng.normal(size=m)).round(2)
    b[rng.random(m) < zero_frac] = 0.0
    c = rng.normal(size=n).round(2)
    # duplicated rows tie in the ratio test: degenerate pivots
    dup = rng.integers(0, m, copies)
    return c, np.vstack([A, A[dup]]), np.concatenate([b, b[dup]])


def test_basic_vertex_optimum():
    res = solve_lp([-1, -1], [[1, 1]], [1])
    assert res.status == OPTIMAL
    assert res.value == pytest.approx(-1.0)
    assert res.x.sum() == pytest.approx(1.0)


def test_unbounded_detected():
    res = solve_lp([-1], np.zeros((1, 1)), [0])
    assert res.status == UNBOUNDED


def test_negative_rhs_rejected():
    # the simplex starts at the origin, which a negative right-hand side excludes
    with pytest.raises(ValueError, match="non-negative"):
        solve_lp([1], [[1]], [-1])


def test_degenerate_problem_terminates():
    # multiple redundant rows through the same vertex: degenerate pivots must not cycle
    A = [[1, 1], [1, 1], [2, 2], [1, 0], [0, 1]]
    b = [1, 1, 2, 1, 1]
    res = solve_lp([-1, -2], A, b)
    assert res.status == OPTIMAL
    assert res.value == pytest.approx(-2.0)


def test_beale_example_does_not_cycle():
    # Beale's example cycles under the most-negative-reduced-cost rule alone,
    # so the Bland fallback must pivot as the full tableau's does; it runs in
    # a subprocess so that a cycling regression fails, not hangs
    c = [-0.75, 20, -0.5, 6]
    A = [[0.25, -8, -1, 9], [0.5, -12, -0.5, 3], [0, 0, 1, 0]]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    code = (
        "from mrckit.simplex import solve_lp\n"
        f"res = solve_lp({c}, {A}, [0, 0, 1])\n"
        "print(res.status, res.pivots, repr(res.value), *map(repr, res.x.tolist()))\n"
    )
    try:
        done = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise AssertionError(f"Beale's example did not finish within {TIMEOUT_S} s") from None
    assert done.returncode == 0, done.stderr
    status, pivots, value, *x = done.stdout.split()
    assert status == OPTIMAL
    assert float(value) == pytest.approx(-1.25)
    ref = full_tableau_lp(np.array(c), np.array(A, dtype=float), np.array([0.0, 0.0, 1.0]))
    assert (status, int(pivots), float(value)) == (ref[0], ref[3], ref[2])
    assert np.array_equal(np.array(x, dtype=float), ref[1])


def test_exact_lp_needs_fewer_pivots_than_rows(monkeypatch):
    # the K=4 exact 0-1 LP on a fixed lattice sample: 16 patterns x 15 subsets
    results = []

    def record(c, A, b):
        results.append((A.shape[0], solve_lp(c, A, b), (c, A, b)))
        return results[-1][1]

    monkeypatch.setattr(solver, "solve_lp", record)
    data = lattice_joint(np.random.default_rng([1, 4])).sample(3000, seed=1)
    fm = features.fit_thresholds(data, features.StumpSpec(4))
    box = features.estimate_expectations(fm, data, 0.25)
    solver.train_zero_one_exact(box, features.constraint_atoms(fm, data), feature_map=fm)
    [(rows, res, lp)] = results
    assert rows == 240
    assert res.status == OPTIMAL
    assert 0 < res.pivots < rows
    assert_same_run(*lp)


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 6),
    m=st.integers(1, 9),
    zero_frac=st.floats(0.0, 1.0),
    copies=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=2, m=3, zero_frac=1.0, copies=3, seed=0)  # every row through the origin
def test_matches_scipy_on_random_problems(n, m, zero_frac, copies, seed):
    c, A, b = random_lp(n, m, zero_frac, copies, seed)
    mine = solve_lp(c, A, b)
    ref = linprog(c, A_ub=A, b_ub=b, bounds=(0, None), method="highs")
    # the origin is feasible, so any HiGHS status but optimal means unbounded,
    # whichever label (2, 3 or 4) its presolve gives it
    assert (mine.status == UNBOUNDED) == (ref.status != 0)
    if mine.status == OPTIMAL:
        assert mine.value == pytest.approx(ref.fun, rel=1e-6, abs=1e-8)
        assert np.all(A @ mine.x <= b + 1e-7)
        assert np.all(mine.x >= -1e-9)


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 6),
    m=st.integers(1, 9),
    zero_frac=st.floats(0.0, 1.0),
    copies=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=2, m=3, zero_frac=1.0, copies=3, seed=0)
def test_pivots_as_the_full_tableau_on_random_problems(n, m, zero_frac, copies, seed):
    assert_same_run(*random_lp(n, m, zero_frac, copies, seed))


def test_memory_grows_with_the_constraint_matrix_not_rows_squared():
    # a tall LP: a tableau with a rows x rows slack block would need 65 MB
    rng = np.random.default_rng(0)
    A = rng.random((2000, 20))
    b, c = np.ones(2000), -rng.random(20)
    tracemalloc.start()
    try:
        res = solve_lp(c, A, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.status == OPTIMAL and res.pivots > 0
    assert peak <= 4 * A.nbytes


def test_dimension_mismatch_is_error():
    with pytest.raises(ValueError):
        solve_lp([1, 2], [[1]], [1])
    with pytest.raises(ValueError):
        solve_lp([1], [[1]], [1, 2])


def test_nonfinite_rejected():
    with pytest.raises(ValueError):
        solve_lp([np.inf], [[1]], [1])
