import math
import tracemalloc

import numpy as np
import pytest

from mrckit.core import (
    AlphaLoss,
    ConstraintAtoms,
    ExpectationBox,
    FeatureMap,
    LogLoss,
    MrcModel,
    ZeroOneLoss,
    pattern_scores,
)
from mrckit.datasets import lattice_joint
from mrckit.features import StumpSpec, constraint_atoms, fit_thresholds
from mrckit.predictors import predict_labels, predict_probs, rule_probs, sample_labels
from mrckit.solver import SolverConfig, max_offset_alpha, train_mrc

ZO = ZeroOneLoss()
LG = LogLoss()


def make_model(loss, weights, offset, fm):
    return MrcModel(
        loss=loss,
        weights=np.asarray(weights, dtype=float),
        offset=offset,
        objective_value=0.0,
        num_classes=fm.num_classes,
        feature_map=fm,
    )


def test_zero_one_uniform_when_normalizer_vanishes():
    probs = ZO.rule(np.array([[-2.0, -3.0]]), 0.0)
    np.testing.assert_allclose(probs, [[0.5, 0.5]])


def test_zero_one_uniform_offset():
    # offset 1/K - 1 with zero scores leaves exactly uniform masses
    probs = ZO.rule(np.zeros((1, 4)), 0.25 - 1.0)
    np.testing.assert_allclose(probs, 0.25)


def test_zero_one_positive_part_normalization():
    probs = ZO.rule(np.array([[0.1, -1.5]]), 0.0)
    np.testing.assert_allclose(probs, [[1.0, 0.0]])


def test_log_probs_softmax_values():
    np.testing.assert_allclose(LG.rule(np.array([[0.0, 0.0]]), None), 0.5)
    np.testing.assert_allclose(
        LG.rule(np.array([[math.log(2.0), 0.0]]), None), [[2.0 / 3.0, 1.0 / 3.0]]
    )


def test_log_probs_shift_invariance():
    rng = np.random.default_rng(0)
    for _ in range(100):
        s = rng.normal(size=(1, 3))
        shifted = LG.rule(s + rng.normal(), None)
        np.testing.assert_allclose(shifted, LG.rule(s, None), atol=1e-12)


def test_alpha_probs_uniform_at_zero_weights():
    (off,), _ = max_offset_alpha(np.zeros((1, 2)), 2.0)
    probs = AlphaLoss(2.0).rule(np.zeros((1, 2)), off)
    np.testing.assert_allclose(probs, 0.5, atol=1e-9)


def test_alpha_probs_distribute_slack_uniformly():
    # base masses 0.25 each leave slack 0.5 split as 0.25 per label
    # ((s + off)/beta + 1)^beta = 0.25 with beta = 2 needs s + off = -1
    probs = AlphaLoss(2.0).rule(np.full((1, 2), -1.0), 0.0)
    np.testing.assert_allclose(probs, [[0.5, 0.5]])
    base = ((-1.0) / 2.0 + 1.0) ** 2.0
    assert probs[0, 0] >= base


@pytest.mark.parametrize("alpha", [2.0, 0.5])
def test_alpha_probs_use_own_offset_on_infeasible_rows(alpha):
    # at offset 0 the first and last rows' base masses sum above 1 (for
    # beta < 0 they are unattainable); the middle row is feasible
    loss = AlphaLoss(alpha)
    scores = np.array([[2.0, 2.0], [-1.0, -1.0], [3.0, -4.0]])
    probs = loss.rule(scores, 0.0)
    assert np.all(probs >= 0.0)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
    np.testing.assert_array_equal(probs[[0, 2]], loss.rule(scores[[0, 2]], None))
    np.testing.assert_array_equal(probs[1], loss.rule(scores[1:2], 0.0)[0])


def test_alpha_model_predicts_on_unseen_patterns():
    # trained on 40 rows, this model meets indicator patterns it never saw,
    # at which its offset is infeasible
    from mrckit.datasets import two_class_demo_joint
    from mrckit.features import StumpSpec, constraint_atoms, estimate_expectations, fit_thresholds

    joint = two_class_demo_joint()
    data = joint.sample(40, seed=6)
    fm = fit_thresholds(data, StumpSpec(6))
    box = estimate_expectations(fm, data, 0.25)
    model = train_mrc(
        AlphaLoss(2.0), box, constraint_atoms(fm, data), SolverConfig(max_iters=300), fm
    )
    probs = predict_probs(model, joint.sample(5000, seed=106).instances)
    assert np.all(probs >= 0.0)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)


def test_rows_are_distributions_for_all_losses():
    rng = np.random.default_rng(1)
    fm = FeatureMap(num_classes=3, thresholds=((1, 0.0), (1, 1.0)))
    # the reachable patterns of this map: x <= 0, 0 < x <= 1, x > 1
    atoms = ConstraintAtoms(
        patterns=np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 1.0], [1.0, 1.0, 1.0]]),
        num_classes=3,
    )
    for loss in (ZO, LG, AlphaLoss(2.0), AlphaLoss(0.5)):
        for _ in range(30):
            box = _consistent_box(rng, atoms)
            model = train_mrc(loss, box, atoms, SolverConfig(max_iters=200))
            X = rng.normal(size=(20, 1)) * 2.0
            scores = pattern_scores(fm.indicator_matrix(X), model.weights)
            probs = rule_probs(loss, scores, model.offset)
            assert np.all(probs >= -1e-12)
            np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)


def _consistent_box(rng, atoms):
    p = rng.random((atoms.count, atoms.num_classes))
    p /= p.sum()
    mean = np.zeros(atoms.dim)
    blk = atoms.block_size
    for j in range(atoms.count):
        for y in range(atoms.num_classes):
            mean[y * blk : (y + 1) * blk] += p[j, y] * atoms.patterns[j]
    return ExpectationBox(mean, rng.random(atoms.dim) * 0.3, 25)


def test_feasibility_inheritance_on_atoms():
    # on every training pattern the rule dominates what the dual constraint caps
    rng = np.random.default_rng(2)
    atoms = ConstraintAtoms(
        patterns=np.array([[1.0, 0.0], [1.0, 1.0]]), num_classes=2
    )
    for loss in (ZO, LG):
        for _ in range(25):
            box = _consistent_box(rng, atoms)
            model = train_mrc(loss, box, atoms, SolverConfig(max_iters=500))
            scores = atoms.scores(model.weights)
            probs = rule_probs(loss, scores, model.offset)
            if isinstance(loss, ZeroOneLoss):
                floor = scores + model.offset + 1.0
            else:
                floor = np.exp(scores + model.offset)
            assert np.all(probs >= floor - 1e-9)


def test_alpha_rule_dominates_base_masses():
    rng = np.random.default_rng(3)
    atoms = ConstraintAtoms(patterns=np.array([[1.0, 0.0], [1.0, 1.0]]), num_classes=2)
    for alpha in (0.5, 2.0, 4.0):
        beta = AlphaLoss(alpha).beta
        for _ in range(25):
            box = _consistent_box(rng, atoms)
            model = train_mrc(AlphaLoss(alpha), box, atoms, SolverConfig(max_iters=500))
            scores = atoms.scores(model.weights)
            probs = rule_probs(model.loss, scores, model.offset)
            t = (scores + model.offset) / beta + 1.0
            if beta > 0:
                base = np.clip(t, 0.0, None) ** beta
            else:
                base = np.where(t > 0, np.clip(t, 1e-300, None) ** beta, np.inf)
            assert np.all(probs >= base - 1e-9)


def test_predict_wrappers_and_dispatch():
    fm = FeatureMap(num_classes=2, thresholds=((1, 0.5),))
    X = np.array([[0.0], [1.0]])
    m01 = make_model(ZO, np.zeros(4), -0.5, fm)
    probs = predict_probs(m01, X)
    np.testing.assert_allclose(probs, 0.5)
    sampled = sample_labels(probs, seed=11)
    assert sampled.shape == (2,)
    mlog = make_model(LG, [0.3, 0.0, -0.2, 0.0], -0.7, fm)
    labels = predict_labels(mlog, X)
    assert labels[0] == 1  # highest score wins
    (off,), _ = max_offset_alpha(np.zeros((1, 2)), 2.0)
    ma = make_model(AlphaLoss(2.0), np.zeros(4), off, fm)
    np.testing.assert_allclose(predict_probs(ma, X), 0.5, atol=1e-9)


def test_argmax_tie_breaks_to_smallest_label():
    fm = FeatureMap(num_classes=3, thresholds=())
    mlog = make_model(LG, np.zeros(3), -math.log(3.0), fm)
    labels = predict_labels(mlog, np.zeros((4, 1)))
    assert labels.tolist() == [1, 1, 1, 1]


def test_sampling_is_reproducible():
    rng = np.random.default_rng(4)
    probs = rng.random((50, 3))
    probs /= probs.sum(axis=1, keepdims=True)
    a = sample_labels(probs, seed=123)
    b = sample_labels(probs, seed=123)
    c = sample_labels(probs, seed=124)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert a.min() >= 1 and a.max() <= 3


def test_sampling_frequencies_track_probabilities():
    probs = np.tile([[0.8, 0.2]], (4000, 1))
    draws = sample_labels(probs, seed=5)
    assert abs((draws == 1).mean() - 0.8) < 0.03



@pytest.mark.parametrize("pinned", [False, True], ids=["box", "pinned-marginal"])
@pytest.mark.parametrize(
    "loss", [ZO, LG, AlphaLoss(2.0), AlphaLoss(0.5)], ids=["0-1", "log", "alpha2", "alpha0.5"]
)
def test_predict_probs_is_the_rule_at_every_row_bit_for_bit(loss, pinned):
    rng = np.random.default_rng(11)
    joint = lattice_joint(rng, num_classes=3)
    train = joint.sample(400, seed=11)
    fm = fit_thresholds(train, StumpSpec(5))
    # off-lattice rows also reach cells no training row occupies
    X = np.vstack([joint.sample(2000, seed=12).instances, rng.normal(2.5, 3.0, (500, 2))])
    w = rng.normal(size=fm.dim)
    # the box's offset is feasible on the training patterns, not on every row
    offset = None if pinned else float(loss.offset(constraint_atoms(fm, train).scores(w)).min())
    model = make_model(loss, w, offset, fm)
    got = predict_probs(model, X)
    want = rule_probs(loss, pattern_scores(fm.indicator_matrix(X), w), offset)
    assert got.flags.c_contiguous
    assert np.array_equal(got.view(np.int64), want.view(np.int64))

    # a row's probabilities do not depend on the rest of its batch
    for idx in ([0], [len(X) - 1], slice(None, None, 7), rng.permutation(len(X))[:100],
                slice(None, None, -1)):
        part = predict_probs(model, X[idx])
        assert np.array_equal(part.view(np.int64), got[idx].view(np.int64))


def test_predict_probs_never_holds_the_batch_indicator_matrix():
    n = 50_000
    rng = np.random.default_rng(3)
    maps = [
        # 2 x 10 thresholds on normal rows
        (tuple((d, t) for d in (1, 2) for t in np.linspace(-2.0, 2.0, 10)),
         rng.normal(size=(n, 2))),
        # 6 x 19 thresholds: a cell space of 20^6, far more than n, so no
        # table may span it; rows take few values, so few cells are occupied
        (tuple((d, t) for d in range(1, 7) for t in np.linspace(-2.0, 2.0, 19)),
         rng.integers(-1, 2, size=(n, 6)) * 1.1),
    ]
    for thresholds, X in maps:
        fm = FeatureMap(num_classes=2, thresholds=thresholds)
        model = make_model(ZO, np.random.default_rng(2).normal(size=fm.dim), -0.2, fm)
        tracemalloc.start()
        try:
            probs = predict_probs(model, X)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert probs.shape == (n, 2)
        assert peak < n * fm.block_size * 8  # the (n, k+1) float indicator matrix
