import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mrckit import features
from mrckit.core import Dataset, FeatureMap
from mrckit.features import (
    StumpSpec,
    constraint_atoms,
    estimate_expectations,
    fit_thresholds,
    hoeffding_widths,
    stump_thresholds_1d,
)


def gini_scan_oracle(values, labels, num_classes):
    """Exhaustive single-split scan: best impurity decrease over all midpoints."""
    values = np.asarray(values, dtype=float)
    labels = np.asarray(labels)
    distinct = np.unique(values)
    best_gain, best_th = 0.0, None
    n = values.shape[0]

    def weighted_gini(mask):
        cnt = np.array([(labels[mask] == c).sum() for c in range(1, num_classes + 1)])
        tot = cnt.sum()
        if tot == 0:
            return 0.0
        return tot - (cnt**2).sum() / tot

    parent = weighted_gini(np.ones(n, dtype=bool))
    for a, b in zip(distinct[:-1], distinct[1:]):
        th = 0.5 * (a + b)
        left = values <= th
        gain = parent - weighted_gini(left) - weighted_gini(~left)
        if gain > best_gain + 1e-12:
            best_gain, best_th = gain, th
    return best_gain, best_th


def reference_stump_thresholds(values, labels, num_classes, max_leaves):
    """Round-by-round greedy growth: every open leaf's best split is searched
    again each round, and the first leaf of largest gain (strict >) is split,
    its two children appended at the end; thresholds are 0.5 * (a + b)."""

    def gini_score(counts):
        return (counts.astype(np.float64) ** 2).sum(axis=-1) / counts.sum(axis=-1)

    def best_split(v, cum, lo, hi):
        boundaries = np.arange(lo + 1, hi)
        boundaries = boundaries[v[boundaries] != v[boundaries - 1]]
        if boundaries.size == 0:
            return 0.0, -1
        left = cum[boundaries] - cum[lo]
        right = cum[hi] - cum[boundaries]
        parent = cum[hi] - cum[lo]
        gains = gini_score(left) + gini_score(right) - gini_score(parent[None, :])[0]
        k = int(np.argmax(gains))
        return float(gains[k]), int(boundaries[k])

    order = np.argsort(values, kind="stable")
    v = np.asarray(values, dtype=np.float64)[order]
    lab = np.asarray(labels, dtype=np.int64)[order] - 1
    n = v.shape[0]
    cum = np.zeros((n + 1, num_classes), dtype=np.int64)
    np.add.at(cum[1:], (np.arange(n), lab), 1)
    cum = np.cumsum(cum, axis=0)
    leaves, thresholds = [(0, n)], []
    while len(leaves) < max_leaves:
        best = (-1.0, -1, -1)  # gain, leaf index, boundary
        for i, (lo, hi) in enumerate(leaves):
            gain, boundary = best_split(v, cum, lo, hi)
            if gain > best[0]:
                best = (gain, i, boundary)
        gain, i, boundary = best
        if boundary < 0 or gain <= 1e-10 * max(1, n):
            break
        lo, hi = leaves.pop(i)
        leaves.extend([(lo, boundary), (boundary, hi)])
        thresholds.append(0.5 * (v[boundary - 1] + v[boundary]))
    return sorted(thresholds)


# magnitudes in [1e-300, 1e300]: halving and adding two of them neither
# overflows nor leaves the normal range
_MAGNITUDE = st.floats(1e-300, 1e300)
_NORMAL = st.one_of(st.just(0.0), _MAGNITUDE, _MAGNITUDE.map(lambda x: -x))


@st.composite
def stump_inputs(draw):
    """Values drawn from a pool of 1-30 numbers (ties, few distinct values),
    either integers or floats of any normal magnitude, labels over K = 2-5
    classes, and a budget of 2-40 leaves."""
    pool_values = st.one_of(st.integers(-5, 5).map(float), _NORMAL)
    pool = draw(st.lists(pool_values, min_size=1, max_size=30, unique=True))
    n = draw(st.integers(1, 80))
    values = np.array(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)))
    k = draw(st.integers(2, 5))
    labels = np.array(draw(st.lists(st.integers(1, k), min_size=n, max_size=n)))
    return values, labels, k, draw(st.integers(2, 40))


def _split_between(thresholds, values):
    """Every threshold t has a value at or below it and the next value above."""
    for t in thresholds:
        assert np.any(values <= t) and np.any(values > t)


@settings(max_examples=500, deadline=None)
@given(case=stump_inputs())
def test_thresholds_match_the_round_by_round_reference(case):
    values, labels, k, leaves = case
    got = stump_thresholds_1d(values, labels, k, leaves)
    _split_between(got, values)
    u = np.unique(values)
    if np.all(0.5 * (u[:-1] + u[1:]) < u[1:]):  # the reference's midpoints stay below b
        want = reference_stump_thresholds(values, labels, k, leaves)
        assert [t.hex() for t in got] == [t.hex() for t in want]


@settings(max_examples=300, deadline=None)
@given(case=stump_inputs(), seed=st.integers(0, 2**32 - 1))
def test_thresholds_do_not_depend_on_row_order(case, seed):
    values, labels, k, leaves = case
    perm = np.random.default_rng(seed).permutation(values.size)
    got = stump_thresholds_1d(values[perm], labels[perm], k, leaves)
    want = stump_thresholds_1d(values, labels, k, leaves)
    assert [t.hex() for t in got] == [t.hex() for t in want]


@pytest.mark.parametrize(
    "decimals, k, seed",
    [(None, 3, 0), (None, 10, 1), (0, 2, 2), (0, 10, 3), (1, 5, 4), (2, 7, 5)],
)
def test_thresholds_match_the_reference_at_scale(decimals, k, seed):
    # 20 000 rows, continuous or rounded to few decimals (many ties), with
    # labels that drift with the value and 20% of them redrawn at random
    rng = np.random.default_rng(seed)
    values = rng.normal(scale=3.0, size=20_000)
    if decimals is not None:
        values = np.round(values, decimals)
    labels = 1 + np.floor(k * (np.sin(values) + 1.0) / 2.0).astype(np.int64).clip(0, k - 1)
    noisy = rng.random(values.size) < 0.2
    labels[noisy] = rng.integers(1, k + 1, noisy.sum())
    got = stump_thresholds_1d(values, labels, k, 20)
    assert len(got) == 19
    u = np.unique(values)
    assert np.all(0.5 * (u[:-1] + u[1:]) < u[1:])  # the reference's midpoints stay below b
    want = reference_stump_thresholds(values, labels, k, 20)
    assert [t.hex() for t in got] == [t.hex() for t in want]


@pytest.mark.parametrize(
    "values, labels",
    [
        ([0.0, 1.0, 2.0, 3.0], [1, 2, 3, 1]),  # label above num_classes
        ([0.0, 1.0, 2.0, 3.0], [0, 1, 2, 1]),  # label below 1
        ([0.0, 1.0, 2.0, 3.0], [1.0, 2.0, 1.0, 2.0]),  # labels not integers
        (np.arange(8.0), [1, 2, 1]),  # fewer labels than values
        (np.arange(8.0).reshape(4, 2), [1, 2, 1, 2]),  # values not one column
        ([0.0, np.nan, 2.0, 3.0], [1, 2, 1, 2]),
        ([0.0, 1.0, np.inf, 3.0], [1, 2, 1, 2]),
        ([-np.inf, 1.0, 2.0, 3.0], [1, 2, 1, 2]),
    ],
)
def test_stump_thresholds_reject_malformed_inputs(values, labels):
    with pytest.raises(ValueError):
        stump_thresholds_1d(np.asarray(values), np.asarray(labels), 2, 5)


@settings(max_examples=200, deadline=None)
@given(
    values=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=2, max_size=20),
    seed=st.one_of(st.none(), st.integers(0, 2**32 - 1)),
)
def test_every_threshold_splits_its_neighbours(values, seed):
    # any finite values, subnormal and near-overflow ones included; labels 1
    # on the lower half and 2 on the upper, flipped at random given a seed
    values = np.array(values)
    labels = np.ones(values.size, dtype=np.int64)
    labels[np.argsort(values, kind="stable")[values.size // 2 :]] = 2
    if seed is not None:
        labels = np.where(np.random.default_rng(seed).random(values.size) < 0.3, 3 - labels, labels)
    got = stump_thresholds_1d(values, labels, 2, 40)
    _split_between(got, values)


@pytest.mark.parametrize("leaves", [5, 12, 40])
def test_each_leaf_split_is_searched_once(monkeypatch, leaves):
    calls = []

    def counted(*args):
        calls.append(args)
        return best_split(*args)

    best_split = features._best_split
    monkeypatch.setattr(features, "_best_split", counted)
    rng = np.random.default_rng(leaves)
    values = rng.normal(size=500)
    labels = rng.integers(1, 4, 500)
    got = stump_thresholds_1d(values, labels, 3, leaves)
    grown = len(got) + 1
    assert grown >= 5
    assert len(calls) <= 2 * grown - 1


def test_threshold_between_adjacent_floats_separates_them():
    # 0.5 * (a + b) rounds up to b for neighbouring floats a < b
    a = np.nextafter(1.0, 2.0)
    b = np.nextafter(a, 2.0)
    values = np.array([a, a, b, b])
    got = stump_thresholds_1d(values, [1, 1, 2, 2], 2, max_leaves=2)
    assert got == [a]
    fm = FeatureMap(num_classes=2, thresholds=((1, got[0]),))
    np.testing.assert_array_equal(fm.indicator_matrix(values[:, None])[:, 1], [1, 1, 0, 0])


def test_threshold_between_huge_values_is_finite():
    # a + b overflows to inf for these finite values
    values = np.array([1e308, 1e308, 1.6e308, 1.6e308])
    with np.errstate(over="raise"):
        fm = fit_thresholds(Dataset(values[:, None], [1, 1, 2, 2], num_classes=2))
    (d, t), = fm.thresholds
    assert d == 1 and 1e308 <= t < 1.6e308
    np.testing.assert_array_equal(fm.indicator_matrix(values[:, None])[:, 1], [1, 1, 0, 0])


def test_single_split_matches_scan_oracle():
    values = np.array([0.0, 0.0, 1.0, 1.0])
    labels = np.array([1, 1, 2, 2])
    _, th = gini_scan_oracle(values, labels, 2)
    got = stump_thresholds_1d(values, labels, 2, max_leaves=2)
    assert len(got) == 1
    assert 0.0 <= got[0] < 1.0
    assert got[0] == pytest.approx(th)


def test_constant_column_contributes_no_thresholds():
    data = Dataset(
        instances=np.column_stack([np.zeros(6), [0, 1, 2, 3, 4, 5]]),
        labels=[1, 1, 1, 2, 2, 2],
        num_classes=2,
    )
    fm = fit_thresholds(data, StumpSpec(max_leaves=4))
    assert all(d == 2 for d, _ in fm.thresholds)


def test_perfectly_mixed_labels_yield_no_split():
    # every candidate split keeps a 50/50 mix: impurity decrease is 0 everywhere
    values = np.array([0.0, 0.0, 1.0, 1.0, 2.0, 2.0])
    labels = np.array([1, 2, 1, 2, 1, 2])
    gain, _ = gini_scan_oracle(values, labels, 2)
    assert gain == 0.0
    assert stump_thresholds_1d(values, labels, 2, max_leaves=2) == []


def test_all_constant_dataset_gives_intercept_only_map():
    data = Dataset(instances=np.zeros((4, 2)), labels=[1, 2, 1, 2], num_classes=2)
    fm = fit_thresholds(data)
    assert fm.num_thresholds == 0
    assert fm.dim == 2


def test_greedy_tree_respects_leaf_budget():
    rng = np.random.default_rng(3)
    values = rng.normal(size=200)
    labels = (values > 0).astype(int) + 1
    for budget in (2, 5, 20):
        got = stump_thresholds_1d(values, labels, 2, max_leaves=budget)
        assert len(got) <= budget - 1


def test_greedy_first_split_is_the_scan_optimum():
    rng = np.random.default_rng(11)
    for _ in range(20):
        values = rng.integers(0, 6, size=40).astype(float)
        labels = rng.integers(1, 4, size=40)
        gain, th = gini_scan_oracle(values, labels, 3)
        got = stump_thresholds_1d(values, labels, 3, max_leaves=2)
        if gain <= 1e-9:
            assert got == []
        else:
            assert got[0] == pytest.approx(th)


def test_estimate_expectations_forced_arithmetic():
    # 4 identical samples, intercept-only map: phi = (1, 0), widths 0.25
    data = Dataset(instances=np.zeros((4, 1)), labels=[1, 1, 1, 1], num_classes=2)
    fm = FeatureMap(num_classes=2, thresholds=())
    box = estimate_expectations(fm, data, np.array([0.25, 0.25]))
    np.testing.assert_allclose(box.mean, [1.0, 0.0])
    np.testing.assert_allclose(box.lower, [0.875, -0.125])
    np.testing.assert_allclose(box.upper, [1.125, 0.125])


def test_zero_widths_collapse_the_box():
    data = Dataset(instances=np.zeros((5, 1)), labels=[1, 2, 1, 2, 1], num_classes=2)
    fm = FeatureMap(num_classes=2, thresholds=())
    box = estimate_expectations(fm, data, 0.0)
    np.testing.assert_array_equal(box.lower, box.mean)
    np.testing.assert_array_equal(box.upper, box.mean)


def test_box_width_scales_as_inverse_sqrt_n():
    fm = FeatureMap(num_classes=2, thresholds=())
    d1 = Dataset(instances=np.zeros((4, 1)), labels=[1, 1, 2, 2], num_classes=2)
    d2 = Dataset(instances=np.zeros((16, 1)), labels=[1, 1, 2, 2] * 4, num_classes=2)
    b1 = estimate_expectations(fm, d1, 0.5)
    b2 = estimate_expectations(fm, d2, 0.5)
    np.testing.assert_allclose(b1.upper - b1.lower, 2 * (b2.upper - b2.lower))


def test_negative_widths_rejected():
    data = Dataset(instances=np.zeros((2, 1)), labels=[1, 2], num_classes=2)
    fm = FeatureMap(num_classes=2, thresholds=())
    with pytest.raises(ValueError):
        estimate_expectations(fm, data, np.array([0.1, -0.1]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, [0.1, np.nan]])
def test_non_finite_widths_rejected(bad):
    data = Dataset(instances=np.zeros((2, 1)), labels=[1, 2], num_classes=2)
    fm = FeatureMap(num_classes=2, thresholds=())
    with pytest.raises(ValueError):
        estimate_expectations(fm, data, bad)


def test_width_formula_unit_radical():
    # m = 2 coordinates and delta = 2m/e^2 make the radical exactly 1
    fm = FeatureMap(num_classes=2, thresholds=())
    np.testing.assert_allclose(hoeffding_widths(fm, 4.0 / np.e**2), [1.0, 1.0])


def test_width_formula_isolated_log2_term():
    # delta -> 1 leaves log 2 as the delta term: sqrt((log 2 + log 2)/2) at m = 2
    fm = FeatureMap(num_classes=2, thresholds=())
    lam = hoeffding_widths(fm, 1.0 - 1e-12)
    assert lam[0] == pytest.approx(0.83255, rel=1e-4)


def test_width_formula_random_inputs():
    rng = np.random.default_rng(5)
    for _ in range(20):
        k = int(rng.integers(2, 5))
        fm = FeatureMap(num_classes=k, thresholds=((1, 0.0),) * int(rng.integers(0, 4)))
        m = fm.dim
        delta = float(rng.uniform(0.01, 0.99))
        lam = hoeffding_widths(fm, delta)
        np.testing.assert_allclose(
            lam, np.full(m, np.sqrt((np.log(m) + np.log(2.0 / delta)) / 2.0))
        )


@pytest.mark.parametrize("delta", [0.0, 1.0, -0.5, 2.0])
def test_hoeffding_widths_reject_delta_outside_unit_interval(delta):
    fm = FeatureMap(num_classes=2, thresholds=())
    with pytest.raises(ValueError, match="delta"):
        hoeffding_widths(fm, delta)


def test_hoeffding_widths_use_structural_range():
    fm = FeatureMap(num_classes=2, thresholds=((1, 0.5),))
    lam = hoeffding_widths(fm, 0.05)
    assert lam.shape == (4,)
    # every coordinate can be both 0 and 1 with >= 2 classes
    assert np.all(lam == lam[0])
    assert lam[0] == pytest.approx(np.sqrt((np.log(4) + np.log(40)) / 2))


def test_atoms_dedupe_identical_instances():
    data = Dataset(instances=np.zeros((4, 1)), labels=[1, 2, 1, 2], num_classes=2)
    fm = FeatureMap(num_classes=2, thresholds=((1, 0.5),))
    atoms = constraint_atoms(fm, data)
    assert atoms.count == 1


def test_atoms_distinct_patterns():
    data = Dataset(instances=np.array([[0.0], [1.0]]), labels=[1, 2], num_classes=2)
    fm = FeatureMap(num_classes=2, thresholds=((1, 0.5),))
    atoms = constraint_atoms(fm, data)
    assert atoms.count == 2


def test_atoms_capped_by_pattern_range():
    # one threshold: at most 2 patterns no matter how many samples
    rng = np.random.default_rng(0)
    data = Dataset(
        instances=rng.normal(size=(200, 1)), labels=rng.integers(1, 3, 200), num_classes=2
    )
    fm = FeatureMap(num_classes=2, thresholds=((1, 0.0),))
    atoms = constraint_atoms(fm, data)
    assert atoms.count <= 2


def test_every_instance_covered_by_an_atom():
    rng = np.random.default_rng(1)
    data = Dataset(
        instances=rng.normal(size=(50, 2)), labels=rng.integers(1, 3, 50), num_classes=2
    )
    fm = FeatureMap(num_classes=2, thresholds=((1, 0.0), (2, 0.5), (2, -0.5)))
    atoms = constraint_atoms(fm, data)
    assert atoms.count <= data.n
    ind = fm.indicator_matrix(data.instances)
    for row in ind:
        assert any(np.array_equal(row, p) for p in atoms.patterns)
