"""The atom table: cells, label counts, label-block rows, and training on atoms."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mrckit.core import (
    AlphaLoss,
    ConstraintAtoms,
    Dataset,
    FeatureMap,
    LogLoss,
    MrcModel,
    ZeroOneLoss,
    label_blocks,
    pattern_scores,
)
from mrckit.datasets import two_class_demo_joint
from mrckit.features import (
    StumpSpec,
    constraint_atoms,
    estimate_expectations,
    feature_mean,
    fit_thresholds,
)
from mrckit.marginals import (
    adversarial01_objective,
    logreg_objective,
    train_adversarial01,
    train_logreg,
)
from mrckit.predictors import predict_probs, rule_probs
from mrckit.solver import SolverConfig


# threshold values drawn from a small pool so that they repeat, tie with the
# instances and straddle both zeros
_POOL = [-1.5, -0.0, 0.0, 0.5, 2.0, 3.25]
_SPECIAL = [-np.inf, np.inf, np.nan, -0.0]


_LOSSES = [ZeroOneLoss(), LogLoss(), AlphaLoss(2.0), AlphaLoss(0.5)]


@settings(max_examples=200, deadline=None)
@given(
    dims=st.integers(1, 4),
    thresholds=st.lists(st.tuples(st.integers(1, 4), st.sampled_from(_POOL)), max_size=12),
    rows=st.integers(1, 60),
    k=st.integers(2, 4),
    seed=st.integers(0, 2**32 - 1),
    loss=st.sampled_from(_LOSSES),
    pinned=st.booleans(),
)
# the intercept-only map
@example(dims=1, thresholds=[], rows=5, k=2, seed=0, loss=_LOSSES[0], pinned=False)
@example(dims=2, thresholds=[(2, 0.5), (1, -0.0), (2, 0.5), (1, 0.0)], rows=1, k=3, seed=1,
         loss=_LOSSES[1], pinned=True)
# four dimensions whose radix product 3^4 exceeds the rows: cells renumber
# inside the counting loop and their patterns are decoded through it
@example(dims=4, thresholds=[(d, t) for d in (1, 2, 3, 4) for t in (-0.0, 2.0)], rows=20, k=2,
         seed=2, loss=_LOSSES[3], pinned=False)
def test_cells_reproduce_the_indicator_matrix(dims, thresholds, rows, k, seed, loss, pinned):
    rng = np.random.default_rng(seed)
    fm = FeatureMap(num_classes=k, thresholds=tuple((min(d, dims), t) for d, t in thresholds))
    values = np.array(_POOL + _SPECIAL + list(rng.normal(size=4)))
    X = values[rng.integers(0, values.shape[0], size=(rows, dims))]
    ind = fm.indicator_matrix(X)
    patterns, cell = fm.cells(X)
    assert cell.shape == (rows,) and set(cell) == set(range(patterns.shape[0]))
    assert patterns.flags.c_contiguous and np.array_equal(patterns[cell], ind)

    # the table: one distinct pattern per cell, in cell order, and the rows' tally
    labels = rng.integers(1, k + 1, rows)
    atoms = ConstraintAtoms.from_instances(fm, X, labels)
    assert atoms.patterns.flags.c_contiguous
    assert np.unique(atoms.patterns, axis=0).shape == atoms.patterns.shape
    assert np.array_equal(atoms.patterns, patterns)
    assert np.array_equal(atoms.patterns[cell], ind)
    want_counts = np.zeros((patterns.shape[0], k), dtype=np.int64)
    np.add.at(want_counts, (cell, labels - 1), 1)
    assert np.array_equal(atoms.counts, want_counts)
    assert ConstraintAtoms.from_instances(fm, X).counts is None

    # prediction scores each cell's pattern: the rule at every row's own
    # scores, bit for bit, with a box offset feasible on the table or each
    # row's own
    w = rng.normal(size=fm.dim)
    offset = None if pinned else float(loss.offset(atoms.scores(w)).min())
    model = MrcModel(loss=loss, weights=w, offset=offset, objective_value=0.0,
                     num_classes=k, feature_map=fm)
    want = rule_probs(loss, pattern_scores(fm.indicator_matrix(X), w), offset)
    assert predict_probs(model, X).tobytes() == want.tobytes()


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 120),
    levels=st.lists(st.integers(1, 8), min_size=1, max_size=4),
    k=st.integers(2, 4),
    max_leaves=st.integers(2, 10),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=1, levels=[1], k=2, max_leaves=2, seed=0)  # one row, the intercept-only map
@example(n=90, levels=[8, 1, 8, 8], k=4, max_leaves=10, seed=2)  # a constant column
def test_fitted_maps_keep_the_lexicographic_order(n, levels, k, max_leaves, seed):
    # fitted maps list each dimension's sorted thresholds, dimensions in turn,
    # so cell order is np.unique's: the table matches it bit for bit
    rng = np.random.default_rng(seed)
    X = rng.integers(0, levels, size=(n, len(levels))) * rng.normal(size=len(levels))
    data = Dataset(instances=X, labels=rng.integers(1, k + 1, n), num_classes=k)
    fm = fit_thresholds(data, StumpSpec(max_leaves))
    want, inverse = np.unique(fm.indicator_matrix(X), axis=0, return_inverse=True)
    want_counts = np.zeros((want.shape[0], k), dtype=np.int64)
    np.add.at(want_counts, (inverse.ravel(), data.labels - 1), 1)
    atoms = ConstraintAtoms.from_instances(fm, X, data.labels)
    assert atoms.patterns.flags.c_contiguous and atoms.patterns.shape == want.shape
    assert atoms.patterns.tobytes() == want.tobytes()
    assert np.array_equal(atoms.counts, want_counts)


def test_threshold_past_the_instance_dims_keeps_its_message():
    fm = FeatureMap(num_classes=2, thresholds=((1, 0.0), (3, 1.0), (1, 2.0)))
    X = np.zeros((4, 2))
    message = "instance has 2 dims but threshold 2 needs dim 3"
    for call in (fm.indicator_matrix, fm.cells, lambda X: ConstraintAtoms.from_instances(fm, X)):
        with pytest.raises(ValueError, match=message):
            call(X)


def _row_mean(fm, data):
    """Row-by-row empirical feature mean, the reference for the table's."""
    mean = np.zeros((fm.num_classes, fm.block_size))
    np.add.at(mean, data.labels - 1, fm.indicator_matrix(data.instances))
    return mean.ravel() / data.n


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 80),
    k=st.integers(2, 4),
    num_thresholds=st.integers(0, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_table_statistics_match_rows(n, k, num_thresholds, seed):
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 5, size=(n, 2)).astype(np.float64)
    data = Dataset(instances=X, labels=rng.integers(1, k + 1, n), num_classes=k)
    thresholds = tuple((int(d), float(t)) for d, t in zip(
        rng.integers(1, 3, num_thresholds), rng.uniform(-0.5, 4.5, num_thresholds)
    ))
    fm = FeatureMap(num_classes=k, thresholds=thresholds)
    atoms = constraint_atoms(fm, data)
    assert atoms.counts.shape == (atoms.count, k)
    assert atoms.counts.sum() == atoms.n == n
    assert np.array_equal(feature_mean(atoms), _row_mean(fm, data))

    doubled = constraint_atoms(
        fm, Dataset(instances=np.vstack([X, X]), labels=np.tile(data.labels, 2), num_classes=k)
    )
    assert np.array_equal(doubled.patterns, atoms.patterns)
    assert np.array_equal(feature_mean(doubled), feature_mean(atoms))
    assert np.array_equal(doubled.counts, 2 * atoms.counts)
    freq = atoms.counts.sum(axis=1) / atoms.n
    assert np.array_equal(doubled.counts.sum(axis=1) / doubled.n, freq)
    w = rng.normal(size=fm.dim)
    for objective in (adversarial01_objective, logreg_objective):
        value, grad = objective(w, atoms, 0.0)
        value2, grad2 = objective(w, doubled, 0.0)
        assert value == value2
        assert np.array_equal(grad, grad2)


def test_label_blocks_match_loop():
    rng = np.random.default_rng(3)
    patterns = (rng.random((5, 4)) < 0.5).astype(np.float64)
    for k in (2, 3):
        want = np.zeros((5 * k, 4 * k))
        for j in range(5):
            for y in range(k):
                want[j * k + y, y * 4 : (y + 1) * 4] = patterns[j]
        assert np.array_equal(label_blocks(patterns, k), want)


def test_table_rejects_bad_counts():
    patterns = np.array([[1.0, 0.0], [1.0, 1.0]])
    with pytest.raises(ValueError):
        ConstraintAtoms(patterns=patterns, num_classes=2, counts=np.ones((2, 3)))
    with pytest.raises(ValueError):
        ConstraintAtoms(patterns=patterns, num_classes=2, counts=[[1, -1], [0, 0]])
    with pytest.raises(ValueError):
        ConstraintAtoms(patterns=patterns, num_classes=2).n


@pytest.mark.parametrize("labels", [[1, 3, 1, 2], [0, 2, 1, 1], [2], [1, 2, 1, 2, 1]])
def test_table_rejects_labels_outside_the_map(labels):
    # a bad label would count in a neighbouring cell, a single one for every row
    fm = FeatureMap(num_classes=2, thresholds=((1, 0.5),))
    X = np.array([[0.0], [1.0], [0.2], [0.9]])
    with pytest.raises(ValueError, match="labels"):
        ConstraintAtoms.from_instances(fm, X, labels)


def test_expectations_reject_a_table_of_another_class_count():
    # K=2 with 5 thresholds and K=3 with 3 thresholds share dimension 12
    data = Dataset(instances=[[0.0], [1.0], [2.0], [3.0]], labels=[1, 3, 1, 2], num_classes=3)
    fm3 = FeatureMap(num_classes=3, thresholds=((1, 0.5), (1, 1.5), (1, 2.5)))
    fm2 = FeatureMap(num_classes=2, thresholds=tuple((1, t) for t in (0.5, 1.0, 1.5, 2.0, 2.5)))
    assert fm2.dim == fm3.dim == 12
    atoms2 = ConstraintAtoms.from_instances(fm2, data.instances, [1, 2, 1, 2])
    with pytest.raises(ValueError, match="not a table"):
        estimate_expectations(fm3, data, 0.25, atoms2)


@pytest.mark.parametrize("trainer", [train_logreg, train_adversarial01])
def test_fixed_marginal_training_reads_rows_once(monkeypatch, trainer):
    # the rows are read to build the table; iterations run on atoms only
    data = two_class_demo_joint().sample(200, seed=0)
    fm = fit_thresholds(data, StumpSpec(4))
    calls = []
    original = FeatureMap.indicator_matrix

    def counting(self, X):
        calls.append(1)
        return original(self, X)

    monkeypatch.setattr(FeatureMap, "indicator_matrix", counting)
    seen = []
    for iters in (5, 50):
        calls.clear()
        trainer(data, fm, 0.25, SolverConfig(max_iters=iters))
        seen.append(len(calls))
    assert seen[0] == seen[1]
