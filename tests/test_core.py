import numpy as np
import pytest
from hypothesis import given, strategies as st

from mrckit.core import (
    AlphaLoss,
    ConstraintAtoms,
    Dataset,
    ExpectationBox,
    FeatureMap,
    MrcModel,
    BoundReport,
    ZeroOneLoss,
    label_blocks,
    beta_of_alpha,
)


def test_beta_fixed_point():
    assert beta_of_alpha(2.0) == 2.0


def test_beta_half():
    assert beta_of_alpha(0.5) == -1.0


def test_beta_large_alpha_limit():
    # alpha -> inf recovers the 0-1 regime where beta -> 1
    assert abs(beta_of_alpha(1e9) - 1.0) < 2e-9


@pytest.mark.parametrize("bad", [0.0, 1.0, -2.0, float("inf"), float("nan")])
def test_beta_rejects(bad):
    with pytest.raises(ValueError):
        beta_of_alpha(bad)


@given(st.floats(min_value=1e-6, max_value=1e6).filter(lambda a: abs(a - 1.0) > 1e-9))
def test_beta_sign_split(alpha):
    beta = beta_of_alpha(alpha)
    if alpha > 1.0:
        assert beta > 1.0
    else:
        assert beta < 0.0


def test_alpha_loss_validates():
    assert AlphaLoss(4.0).beta == pytest.approx(4.0 / 3.0)
    with pytest.raises(ValueError):
        AlphaLoss(1.0)


@pytest.mark.parametrize("alpha", [1e16, 2.0**54, 1e300])
def test_alpha_whose_beta_rounds_to_one_is_refused(alpha):
    # at beta == 1 the subgradient weights put mass on inactive labels
    assert alpha / (alpha - 1.0) == 1.0
    with pytest.raises(ValueError, match="zero-one"):
        beta_of_alpha(alpha)
    with pytest.raises(ValueError, match="zero-one"):
        AlphaLoss(alpha)


@pytest.mark.parametrize(
    "alpha", [1.0000000000000002, 0.9999999999999999, 1.000000000001, 1.0 - 1e-11]
)
def test_alpha_whose_beta_exceeds_1e10_is_refused(alpha):
    # on the demo data the first three bounded the risk by 1.365, 2.0 and
    # 0.3276 where log loss gives 0.3250
    assert abs(alpha / (alpha - 1.0)) > 1e10
    for make in (beta_of_alpha, AlphaLoss):
        with pytest.raises(ValueError, match="use log") as info:
            make(alpha)
        assert repr(alpha) in str(info.value) and "zero-one" not in str(info.value)


@pytest.mark.parametrize("alpha", [1.0 + 1e-9, 1.0 - 1e-9])
def test_alphas_1e9_from_one_are_accepted(alpha):
    assert 1e8 < abs(beta_of_alpha(alpha)) <= 1e10


def test_largest_alphas_below_beta_one_still_train():
    loss = AlphaLoss(9e15)
    assert loss.beta > 1.0
    _, weights = loss.active_label_weights(np.array([[2.0, -3.0, -3.0, -3.0]]))
    assert weights.tolist() == [[1.0, 0.0, 0.0, 0.0]]


def test_dataset_validation():
    d = Dataset(instances=[[0.0], [1.0]], labels=[1, 2], num_classes=2)
    assert d.n == 2 and d.dim == 1
    d = Dataset(instances=[[0.0], [1.0]], labels=[2.0, 1.0], num_classes=2)
    assert d.labels.dtype == np.int64 and d.labels.tolist() == [2, 1]
    with pytest.raises(ValueError):
        Dataset(instances=[[0.0]], labels=[3], num_classes=2)
    with pytest.raises(ValueError):
        Dataset(instances=[[np.nan]], labels=[1], num_classes=2)
    with pytest.raises(ValueError):
        Dataset(instances=[[0.0]], labels=[1], num_classes=1)


@pytest.mark.parametrize("labels", [[1.7, 2.2], [1.0, 1.5], [1.0, np.nan], [1.0, np.inf]])
def test_dataset_rejects_non_integer_labels(labels):
    with pytest.raises(ValueError, match="integers"):
        Dataset(instances=[[0.0], [1.0]], labels=labels, num_classes=2)


def test_dataset_immutable():
    d = Dataset(instances=[[0.0], [1.0]], labels=[1, 2], num_classes=2)
    with pytest.raises(ValueError):
        d.instances[0, 0] = 5.0


def test_feature_map_dimensions():
    fm = FeatureMap(num_classes=3, thresholds=((1, 0.5), (2, -1.0)))
    assert fm.block_size == 3
    assert fm.dim == 9


def feature_vector(fm, x, y):
    """phi(x, y): the instance's indicator block written into label y's block."""
    return label_blocks(fm.indicator_matrix(x), fm.num_classes)[y - 1]


def test_feature_vector_block_placement():
    fm = FeatureMap(num_classes=2, thresholds=((1, 0.5), (2, -1.0)))
    v1 = feature_vector(fm, [0.3, 0.0], 1)
    assert v1.tolist() == [1, 1, 0, 0, 0, 0]
    v2 = feature_vector(fm, [0.3, 0.0], 2)
    assert v2.tolist() == [0, 0, 0, 1, 1, 0]


def test_feature_vector_all_indicators_fire():
    fm = FeatureMap(num_classes=2, thresholds=((1, 0.5), (2, -1.0)))
    v = feature_vector(fm, [-10.0, -10.0], 1)
    assert v.tolist() == [1, 1, 1, 0, 0, 0]


def test_feature_vector_dim_mismatch_is_error():
    fm = FeatureMap(num_classes=2, thresholds=((2, 0.5),))
    with pytest.raises(ValueError):
        fm.indicator_matrix([0.1])


@given(
    st.integers(min_value=2, max_value=4),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_feature_vector_block_structure_property(k_classes, n_th, seed):
    rng = np.random.default_rng(seed)
    fm = FeatureMap(
        num_classes=k_classes,
        thresholds=tuple((1, float(t)) for t in sorted(rng.normal(size=n_th))),
    )
    x = rng.normal(size=1)
    for y in range(1, k_classes + 1):
        v = feature_vector(fm, x, y)
        blk = v.reshape(k_classes, fm.block_size)
        fired = int(blk[y - 1].sum())
        assert blk[y - 1][0] == 1.0
        assert fired == 1 + int((x[0] <= np.array([t for _, t in fm.thresholds])).sum())
        off_block = np.delete(blk, y - 1, axis=0)
        assert not off_block.any()


def test_expectation_box_roundtrip():
    box = ExpectationBox([1.0, 0.0], [0.25, 0.25], 4)
    np.testing.assert_allclose(box.lower, [0.875, -0.125])
    np.testing.assert_allclose(box.upper, [1.125, 0.125])
    np.testing.assert_allclose(box.half_width, [0.125, 0.125])


def test_expectation_box_rejects_negative_widths():
    with pytest.raises(ValueError):
        ExpectationBox([0.5], [-0.1], 4)


def test_constraint_atoms_scores():
    atoms = ConstraintAtoms(patterns=np.array([[1.0, 0.0], [1.0, 1.0]]), num_classes=2)
    w = np.array([1.0, 2.0, 3.0, 4.0])
    s = atoms.scores(w)
    assert s.shape == (2, 2)
    assert s[0].tolist() == [1.0, 3.0]
    assert s[1].tolist() == [3.0, 7.0]
    np.testing.assert_allclose(label_blocks(atoms.patterns, 2)[2:4] @ w, s[1])


def test_constraint_atoms_validation():
    with pytest.raises(ValueError):
        ConstraintAtoms(patterns=np.array([[0.0, 1.0]]), num_classes=2)
    with pytest.raises(ValueError):
        ConstraintAtoms(patterns=np.array([[1.0, 0.5]]), num_classes=2)


def test_model_variant_offset_coupling():
    fm = FeatureMap(num_classes=2, thresholds=())
    box_model = MrcModel(
        loss=ZeroOneLoss(), weights=np.zeros(2), offset=-0.5,
        objective_value=0.5, num_classes=2, feature_map=fm,
    )
    assert box_model.variant == "expectation"
    pinned = MrcModel(
        loss=ZeroOneLoss(), weights=np.zeros(2), offset=None,
        objective_value=0.5, num_classes=2, feature_map=fm,
    )
    assert pinned.variant == "instance_marginal"
    # the offset alone decides the variant: it can be neither passed nor set
    with pytest.raises(TypeError):
        MrcModel(
            loss=ZeroOneLoss(), weights=np.zeros(2), offset=-0.5,
            objective_value=0.5, num_classes=2, feature_map=fm,
            variant="instance_marginal",
        )
    with pytest.raises(AttributeError):
        box_model.variant = "instance_marginal"


def test_bound_report_orders_bounds():
    BoundReport(upper=0.5, lower=0.5)
    with pytest.raises(ValueError):
        BoundReport(upper=0.3, lower=0.5)


def test_alpha_rule_renormalizes_rows_just_over_one():
    # alpha 2 (beta 2) at scores (0, -10): the first base is
    # (o/2 + 1)^2 = 1 + 1e-12 and the second 0, so the row sums within
    # (1, 1 + 1e-9] and is renormalized rather than given a negative slack
    loss = AlphaLoss(2.0)
    offset = 2.0 * (np.sqrt(1.0 + 1e-12) - 1.0)
    near = np.array([[0.0, -10.0]])
    base = loss.base_masses(near, offset)
    totals = base.sum(axis=1)
    assert 1.0 < totals[0] <= 1.0 + 1e-9
    # a second row at scores (1, -10) sums to 2.25 > 1 + 1e-9 at that
    # offset, so it takes its own largest feasible one
    far = np.array([[1.0, -10.0]])
    assert loss.base_masses(far, offset).sum() > 1.0 + 1e-9
    out = loss.rule(np.vstack([near, far]), offset)
    assert np.all(out >= 0.0)
    assert np.allclose(out.sum(axis=1), 1.0, rtol=0.0, atol=1e-15)
    assert np.array_equal(out[0], base[0] / totals[0])
    assert np.array_equal(out[1], loss.rule(far, None)[0])
