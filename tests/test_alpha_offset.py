"""The alpha-loss dual offset against an independent root finder, and the
small-alpha inputs that used to hang or crash, each run in a subprocess so
that a regression fails its test instead of hanging the suite."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import brentq

from mrckit.core import AlphaLoss, beta_of_alpha
from mrckit.solver import max_offset_alpha

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 60


def constraint(v, o, beta):
    """sum_y ((v_y + o)/beta + 1)_+^beta, +inf where beta < 0 clamps."""
    t = (v + o) / beta + 1.0
    if beta > 0:
        return float((np.maximum(t, 0.0) ** beta).sum())
    return float((t**beta).sum()) if np.all(t > 0.0) else math.inf


def reference_offset(v, alpha, xtol=1e-13):
    """brentq on the monotone constraint, bracketed where it is 0 (or at most
    1) and where the top label alone reaches 1."""
    beta = beta_of_alpha(alpha)
    k = len(v)
    vmax = float(v.max())
    if beta > 0:
        lo = -vmax - beta
    else:  # every base is at least 2 k^(1/|beta|), so every mass below 1/k;
        # at k^(1/|beta|) equal scores put the root on the bracket's end,
        # where rounding can leave the constraint on either side of 1
        lo = -vmax - 2.0 * abs(beta) * k ** (1.0 / abs(beta))
    return brentq(
        lambda o: constraint(v, o, beta) - 1.0, lo, -vmax,
        xtol=xtol, rtol=4 * np.finfo(float).eps, maxiter=1000,
    )


SCORE = st.one_of(
    st.floats(-1.0, 1.0), st.sampled_from([0.0, 0.5, -0.5, 1.0])  # ties and repeats
)


@st.composite
def score_rows(draw):
    k = draw(st.integers(2, 12))
    scale = draw(st.floats(1e-3, 1e2))
    return scale * np.array(draw(st.lists(SCORE, min_size=k, max_size=k)))


@settings(max_examples=400, deadline=None)
@given(alpha=st.one_of(st.floats(0.05, 0.95), st.floats(1.0001, 1e6)), v=score_rows())
@example(alpha=2.0, v=np.zeros(3))
@example(alpha=0.05, v=np.full(12, 1e-3))
@example(alpha=1.0001, v=np.array([0.0, -28.5]))  # offset rounds to 0.0 before the root
@example(alpha=0.055834204247675025, v=np.zeros(11))  # root at k^(1/|beta|) bases
def test_offset_alpha_matches_independent_root(alpha, v):
    beta = beta_of_alpha(alpha)
    got = max_offset_alpha(v, alpha)
    assert math.isfinite(got)
    assert abs(got - reference_offset(v, alpha)) <= 1e-9 * (1.0 + abs(got))
    value = constraint(v, got, beta)
    assert value <= 1.0
    assert value >= 1.0 - 1e-9
    # a row's offset does not depend on the other rows of the batch
    rows = np.stack([v, v[::-1]])
    np.testing.assert_array_equal(
        max_offset_alpha(rows, alpha), [got, max_offset_alpha(v[::-1], alpha)]
    )


def test_offset_alpha_of_a_row_does_not_depend_on_the_batch():
    v = np.random.default_rng(7).normal(size=(4000, 12))  # several blocks of label gaps
    for alpha in (2.0, 4.0, 0.5):
        parts = [max_offset_alpha(v[i : i + 500], alpha) for i in range(0, len(v), 500)]
        np.testing.assert_array_equal(max_offset_alpha(v, alpha), np.concatenate(parts))


@pytest.mark.parametrize("alpha", [0.5, 2.0, 4.0, 1e3])
@pytest.mark.parametrize("rows", [20, 2000])
def test_offsets_round_down_to_just_below_the_root(alpha, rows):
    """Every row of a batch ends feasible in floating point, and at most a few
    units eps (|beta| + |v_max| + |o|) below brentq's root: 8 allows 4 for
    the offset's own rounding and 4 for brentq's, which bounds how far above
    the root it may read too."""
    beta = beta_of_alpha(alpha)
    eps = np.finfo(float).eps
    rng = np.random.default_rng([rows, int(alpha * 10)])
    for k in range(2, 9):
        v = rng.normal(scale=rng.uniform(0.01, 5.0, size=(rows, 1)), size=(rows, k))
        v[::3, 1] = v[::3, 0]  # ties at the top
        got, bases = max_offset_alpha(v, alpha, return_bases=True)
        np.testing.assert_array_equal(bases, (v + got[:, None]) / beta + 1.0)
        assert np.all(AlphaLoss(alpha).base_masses(v, got[:, None]).sum(axis=1) <= 1.0)
        vmax = v.max(axis=1)
        unit = eps * (abs(beta) + np.abs(vmax) + np.abs(got))
        for i in range(rows):
            root = reference_offset(v[i], alpha, xtol=eps * (abs(beta) + abs(vmax[i])))
            assert -4.0 * unit[i] <= root - got[i] <= 8.0 * unit[i], (k, i, (root - got[i]) / unit[i])


def _run(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    try:
        return subprocess.run(
            [sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise AssertionError(f"{argv} did not finish within {TIMEOUT_S} s") from None


def test_small_alpha_offsets_are_finite_or_name_alpha():
    done = _run(["-c", (
        "import numpy as np\n"
        "from mrckit.solver import max_offset_alpha\n"
        "print(repr(max_offset_alpha(np.zeros(2), 0.03)))\n"
        "try:\n"
        "    max_offset_alpha(np.zeros(2), 1e-6)\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
    )])
    assert done.returncode == 0, done.stderr
    first, second = done.stdout.splitlines()
    # beta (K^(-1/beta) - 1) at zero scores, about -8e13
    beta = beta_of_alpha(0.03)
    expect = beta * (2.0 ** (-1.0 / beta) - 1.0)
    assert abs(float(first) - expect) <= 1e-9 * abs(expect)
    assert "alpha" in second and "1e-06" in second


def test_cli_small_alpha_trains_or_exits_2():
    data = str(ROOT / "data" / "two_class_demo.csv")
    for alpha, code in (("0.01", 0), ("1e-6", 2)):
        done = _run(["-m", "mrckit.cli", "train", "--data", data, "--loss", f"alpha:{alpha}",
                     "--max-iters", "300"])
        assert done.returncode == code, done.stderr
        assert "Traceback" not in done.stderr
        if code == 0:
            assert math.isfinite(float(done.stdout.split()[1]))
        else:
            assert "alpha" in done.stderr


@pytest.mark.parametrize("row", [[np.nan, np.nan], [np.inf, 0.0]], ids=["nan", "inf"])
@pytest.mark.parametrize("alpha", [0.5, 2.0, 3.0])
def test_non_finite_scores_name_alpha(alpha, row):
    # weights that overflowed score NaN or inf; no alpha has an offset there
    with pytest.raises(ValueError, match=f"alpha {alpha!r}"):
        max_offset_alpha(np.array([row]), alpha)


@pytest.mark.parametrize(
    "alpha, width",
    [("0.5", "1e300"), ("0.9", "1e300"), ("0.5", "1e200"), ("2", "1e300"), ("3", "1e300")],
)
def test_cli_huge_width_any_alpha_exits_2(alpha, width):
    # the subgradient iterates overflow first, with RuntimeWarnings that pytest
    # would turn into errors in-process
    data = str(ROOT / "data" / "two_class_demo.csv")
    done = _run(["-m", "mrckit.cli", "train", "--data", data, "--loss", f"alpha:{alpha}",
                 "--lambda", width, "--max-iters", "200"])
    assert done.returncode == 2, done.stderr
    assert "Traceback" not in done.stderr
    assert f"alpha {alpha}" in done.stderr


@pytest.mark.parametrize("loss", ["log", "zero-one"])
def test_cli_huge_width_trains_log_and_zero_one(loss):
    # the best weights stay at zero: log's offset takes the overflowed
    # iterates without raising, and 0-1 trains by its LP
    data = str(ROOT / "data" / "two_class_demo.csv")
    done = _run(["-m", "mrckit.cli", "train", "--data", data, "--loss", loss,
                 "--lambda", "1e300", "--max-iters", "200"])
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stderr
