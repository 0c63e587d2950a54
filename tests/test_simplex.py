import os
import subprocess
import sys
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
    # Beale's example cycles under the most-negative-reduced-cost rule alone;
    # it runs in a subprocess so that a cycling regression fails, not hangs
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    code = (
        "from mrckit.simplex import solve_lp\n"
        "res = solve_lp([-0.75, 20, -0.5, 6],\n"
        "               [[0.25, -8, -1, 9], [0.5, -12, -0.5, 3], [0, 0, 1, 0]], [0, 0, 1])\n"
        "print(res.status, repr(res.value))\n"
    )
    try:
        done = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise AssertionError(f"Beale's example did not finish within {TIMEOUT_S} s") from None
    assert done.returncode == 0, done.stderr
    status, value = done.stdout.split()
    assert status == OPTIMAL
    assert float(value) == pytest.approx(-1.25)


def test_exact_lp_needs_fewer_pivots_than_rows(monkeypatch):
    # the K=4 exact 0-1 LP on a fixed lattice sample: 16 patterns x 15 subsets
    results = []

    def record(c, A, b):
        results.append((A.shape[0], solve_lp(c, A, b)))
        return results[-1][1]

    monkeypatch.setattr(solver, "solve_lp", record)
    data = lattice_joint(np.random.default_rng([1, 4])).sample(3000, seed=1)
    fm = features.fit_thresholds(data, features.StumpSpec(4))
    box = features.estimate_expectations(fm, data, 0.25)
    solver.train_zero_one_exact(box, features.constraint_atoms(fm, data), feature_map=fm)
    [(rows, res)] = results
    assert rows == 240
    assert res.status == OPTIMAL
    assert 0 < res.pivots < rows


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
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(m, n)).round(2)
    b = np.abs(rng.normal(size=m)).round(2)
    b[rng.random(m) < zero_frac] = 0.0
    c = rng.normal(size=n).round(2)
    # duplicated rows tie in the ratio test: degenerate pivots
    dup = rng.integers(0, m, copies)
    A, b = np.vstack([A, A[dup]]), np.concatenate([b, b[dup]])
    mine = solve_lp(c, A, b)
    ref = linprog(c, A_ub=A, b_ub=b, bounds=(0, None), method="highs")
    # the origin is feasible, so any HiGHS status but optimal means unbounded,
    # whichever label (2, 3 or 4) its presolve gives it
    assert (mine.status == UNBOUNDED) == (ref.status != 0)
    if mine.status == OPTIMAL:
        assert mine.value == pytest.approx(ref.fun, rel=1e-6, abs=1e-8)
        assert np.all(A @ mine.x <= b + 1e-7)
        assert np.all(mine.x >= -1e-9)


def test_dimension_mismatch_is_error():
    with pytest.raises(ValueError):
        solve_lp([1, 2], [[1]], [1])
    with pytest.raises(ValueError):
        solve_lp([1], [[1]], [1, 2])


def test_nonfinite_rejected():
    with pytest.raises(ValueError):
        solve_lp([np.inf], [[1]], [1])
