"""The condensed simplex against scipy (values) and against a full-tableau
simplex (every pivot, bit for bit; values when rows arrive as cuts), and its
memory on tall programs."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import linprog

from mrckit import bounds, features, solver
from mrckit.core import Dataset
from mrckit.datasets import lattice_joint
from mrckit.simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, solve_lp

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


def test_beale_example_mirrored_into_the_dual_phase_does_not_cycle():
    # Beale's LP dual, min y_3 over A^T y >= -c, 0 <= y <= 10, its rows added
    # as one round of cuts: the dual phase cycles under the most-negative
    # right-hand-side rule alone, so its Bland fallback must end the run; a
    # subprocess turns a cycling regression into a failure, not a hang
    c = [-0.75, 20, -0.5, 6]
    A = [[0.25, -8, -1, 9], [0.5, -12, -0.5, 3], [0, 0, 1, 0]]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    code = (
        "import numpy as np\n"
        "from mrckit.simplex import solve_lp\n"
        f"A, c = np.array({A}, dtype=float), np.array({c})\n"
        "rounds = []\n"
        "def cuts(x):\n"
        "    rounds.append(x)\n"
        "    return (-A.T, c) if len(rounds) == 1 else None\n"
        "res = solve_lp([0, 0, 1], np.eye(3), np.full(3, 10.0), cuts)\n"
        "print(res.status, len(rounds), repr(res.value), *map(repr, res.x.tolist()))\n"
    )
    try:
        done = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise AssertionError(f"the dual Beale example did not finish within {TIMEOUT_S} s") from None
    assert done.returncode == 0, done.stderr
    status, rounds, value, *x = done.stdout.split()
    assert (status, rounds) == (OPTIMAL, "2")
    assert float(value) == pytest.approx(1.25, abs=TOL)  # minus Beale's optimum
    np.testing.assert_allclose(np.array(x, dtype=float), [0.0, 1.5, 1.25], atol=TOL)


def test_exact_lp_needs_fewer_pivots_than_rows(monkeypatch):
    # the K=4 exact 0-1 LP on a fixed lattice sample: 16 patterns x 15
    # subsets would be 240 rows; generation starts from the 64 singletons
    results = []

    def record(c, A, b, cuts=None):
        results.append((A.shape[0], solve_lp(c, A, b, cuts)))
        return results[-1][1]

    monkeypatch.setattr(solver, "solve_lp", record)
    data = lattice_joint(np.random.default_rng([1, 4])).sample(3000, seed=1)
    fm = features.fit_thresholds(data, features.StumpSpec(4))
    box = features.estimate_expectations(fm, data, 0.25)
    model = solver.train_zero_one_exact(box, features.constraint_atoms(fm, data), feature_map=fm)
    [(rows, res)] = results
    assert rows == 64
    assert res.status == OPTIMAL and model.converged
    assert 0 < res.pivots < 240


def test_box_lps_do_not_stall_on_degenerate_vertices(monkeypatch):
    # 653 patterns of a 5-dimensional sample.  Training's 1306 starting rows
    # all pass through the origin, and the exact 0-1 model's loss is zero at
    # one label of every pattern: unperturbed, the pivots took 29 831 and
    # 2758 steps, and on larger tables the bound LP ended in a false
    # "unbounded"
    results = []

    def recording(module):
        def record(c, A, b, cuts=None):
            results.append((A.shape[0], solve_lp(c, A, b, cuts)))
            return results[-1][1]

        monkeypatch.setattr(module, "solve_lp", record)

    recording(solver)
    recording(bounds)
    rng = np.random.default_rng(52)
    X = rng.normal(size=(3000, 5))
    y = rng.integers(1, 3, 3000)
    X[:, 0] += 0.7 * y
    data = Dataset(instances=X, labels=y, num_classes=2)
    fm = features.fit_thresholds(data, features.StumpSpec(10))
    box = features.estimate_expectations(fm, data, 0.1)
    atoms = features.constraint_atoms(fm, data)
    model = solver.train_zero_one_exact(box, atoms)
    bounds.lower_bound(model, box, atoms)
    assert model.converged
    assert [rows for rows, _ in results] == [1306, 1306]
    for rows, res in results:
        assert res.status == OPTIMAL and res.pivots < rows


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


class RowsAsCuts:
    """Hands the rows of A x <= b to ``solve_lp`` as cuts: at each optimum
    those violated by more than 1e-9 and not yet added, all of them or only
    the most violated."""

    def __init__(self, A, b, all_at_once):
        self.A, self.b, self.all_at_once = A, b, all_at_once
        self.added = np.zeros(len(b), dtype=bool)

    def __call__(self, x):
        excess = np.where(self.added, 0.0, self.A @ x - self.b)
        rows = (excess > 1e-9).nonzero()[0]
        if rows.size == 0:
            return None
        if not self.all_at_once:
            rows = rows[[excess[rows].argmax()]]
        self.added[rows] = True
        return self.A[rows], self.b[rows]


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 6),
    m=st.integers(1, 9),
    zero_frac=st.floats(0.0, 1.0),
    copies=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
    all_at_once=st.booleans(),
)
@example(n=2, m=3, zero_frac=1.0, copies=3, seed=0, all_at_once=False)
def test_rows_added_as_cuts_reach_the_full_tableau_value(n, m, zero_frac, copies, seed, all_at_once):
    # the LP starts with the bounds x <= 10, so every stage is bounded, and
    # the random rows arrive through cuts; the oracle has every row at once
    c, A, b = random_lp(n, m, zero_frac, copies, seed)
    cuts = RowsAsCuts(A, b, all_at_once)
    mine = solve_lp(c, np.eye(n), np.full(n, 10.0), cuts)
    all_rows = np.vstack([np.eye(n), A]), np.concatenate([np.full(n, 10.0), b])
    status, _, value, _ = full_tableau_lp(c, *all_rows)
    assert mine.status == status == OPTIMAL
    assert abs(mine.value - value) <= TOL * (1.0 + abs(value))
    assert np.all(A @ mine.x <= b + 1e-9) and np.all(mine.x >= -1e-9)


def test_cut_that_no_point_satisfies_ends_infeasible():
    # x <= 1 holds at the start; x >= 2, and then x <= -1, exclude every x >= 0
    for row, rhs in ((-1.0, -2.0), (1.0, -1.0)):
        calls = []

        def cuts(x):
            calls.append(x)
            return (np.array([[row]]), np.array([rhs])) if len(calls) == 1 else None

        res = solve_lp([-1.0], [[1.0]], [1.0], cuts)
        assert res.status == INFEASIBLE
        assert res.x is None and res.value is None
        assert len(calls) == 1


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
