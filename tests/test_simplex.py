import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import linprog

from mrckit.simplex import OPTIMAL, UNBOUNDED, solve_lp


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
    # multiple redundant rows through the same vertex, Bland must not cycle
    A = [[1, 1], [1, 1], [2, 2], [1, 0], [0, 1]]
    b = [1, 1, 2, 1, 1]
    res = solve_lp([-1, -2], A, b)
    assert res.status == OPTIMAL
    assert res.value == pytest.approx(-2.0)


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
