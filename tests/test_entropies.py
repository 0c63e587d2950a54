import math

import numpy as np
import pytest

from mrckit.core import AlphaLoss, Dataset, LogLoss, ZeroOneLoss
from mrckit.datasets import KnownJoint
from mrckit.oracle import entropy_by_minimization, simplex_grid
from mrckit.predictors import empirical_risk

ZO = ZeroOneLoss()
LG = LogLoss()


def joint(probs):
    """A joint table over placeholder instances; only its probs matter here."""
    probs = np.atleast_2d(probs)
    return KnownJoint(instances=np.zeros((probs.shape[0], 1)), probs=probs)


def random_distribution(rng, nx, ny):
    p = rng.random((nx, ny))
    return joint(p / p.sum())


def test_score_zero_one_table2():
    # score is one minus the probability placed on the realized label
    assert ZO.loss_table([0.7, 0.3])[1] == pytest.approx(0.7)
    assert ZO.loss_table([0.7, 0.3])[0] == pytest.approx(0.3)


def test_score_log_uniform():
    assert LG.loss_table([0.25] * 4)[2] == pytest.approx(math.log(4))


def test_score_alpha_forced():
    # alpha = 2 gives beta = 2: 2 (1 - sqrt(0.25)) = 1
    assert AlphaLoss(2.0).loss_table([0.75, 0.25])[1] == pytest.approx(1.0)


def test_score_log_zero_probability_is_inf():
    assert LG.loss_table([1.0, 0.0])[1] == math.inf


def test_empirical_risk_uniform_rule_three_classes():
    data = Dataset(instances=np.zeros((6, 1)), labels=[1, 2, 3, 1, 2, 3], num_classes=3)
    rule = np.full((6, 3), 1.0 / 3.0)
    assert empirical_risk(ZO, rule, data) == pytest.approx(2.0 / 3.0)


def test_empirical_risk_perfect_rule_log():
    data = Dataset(instances=np.zeros((4, 1)), labels=[1, 2, 1, 2], num_classes=2)
    rule = np.eye(2)[data.labels - 1]
    assert empirical_risk(LG, rule, data) == 0.0


def test_empirical_risk_uniform_alpha():
    data = Dataset(instances=np.zeros((4, 1)), labels=[1, 2, 3, 4], num_classes=4)
    rule = np.full((4, 4), 0.25)
    # beta = 2: 2 (1 - sqrt(1/4)) = 1
    assert empirical_risk(AlphaLoss(2.0), rule, data) == pytest.approx(1.0)


def test_empirical_risk_infinite_log_reported():
    data = Dataset(instances=np.zeros((2, 1)), labels=[1, 2], num_classes=2)
    rule = np.array([[1.0, 0.0], [1.0, 0.0]])
    assert empirical_risk(LG, rule, data) == math.inf


def test_closed_form_uniform_2x2():
    p = joint(np.full((2, 2), 0.25))
    assert ZO.entropy(p.probs) == pytest.approx(0.5)
    assert LG.entropy(p.probs) == pytest.approx(math.log(2.0))


def test_closed_form_point_mass_is_zero():
    p = joint(np.array([[1.0, 0.0]]))
    assert ZO.entropy(p.probs) == 0.0
    assert LG.entropy(p.probs) == pytest.approx(0.0)


def test_grid_entropy_zero_one_tracks_closed_form():
    rng = np.random.default_rng(0)
    for _ in range(5):
        p = random_distribution(rng, 2, 2)
        grid = entropy_by_minimization(ZO, p, 0.01)
        exact = ZO.entropy(p.probs)
        assert abs(grid - exact) <= 0.02


def test_grid_entropy_point_mass():
    p = joint(np.array([[1.0, 0.0]]))
    assert entropy_by_minimization(ZO, p, 0.05) == pytest.approx(0.0, abs=1e-12)
    assert entropy_by_minimization(LG, p, 0.05) == pytest.approx(0.0, abs=1e-12)


def test_grid_entropy_log_uniform_2x2():
    p = joint(np.full((2, 2), 0.25))
    v = entropy_by_minimization(LG, p, 0.001)
    assert abs(v - math.log(2.0)) <= 0.005


def test_grid_never_beats_closed_form():
    # the grid restricts the minimizer, so it can only overshoot
    rng = np.random.default_rng(7)
    for loss in (ZO, LG, AlphaLoss(2.0), AlphaLoss(0.5)):
        for _ in range(5):
            p = random_distribution(rng, 3, 2)
            grid = entropy_by_minimization(loss, p, 0.02)
            exact = loss.entropy(p.probs)
            assert grid >= exact - 1e-9
            assert grid <= exact + 0.1


def test_concavity_spot_check():
    rng = np.random.default_rng(21)
    for loss in (ZO, LG, AlphaLoss(2.0), AlphaLoss(0.5)):
        for _ in range(20):
            a = random_distribution(rng, 2, 2)
            b = random_distribution(rng, 2, 2)
            t = rng.random()
            mix = joint(t * a.probs + (1 - t) * b.probs)
            lhs = loss.entropy(mix.probs)
            rhs = t * loss.entropy(a.probs) + (1 - t) * loss.entropy(b.probs)
            assert lhs >= rhs - 1e-9


def test_log_score_dominates_zero_one_score():
    q = np.linspace(1e-6, 1.0, 200)
    assert np.all(-np.log(q) >= 1.0 - q)


def test_simplex_grid_rows_sum_to_one():
    g = simplex_grid(3, 0.1)
    assert g.shape[1] == 3
    np.testing.assert_allclose(g.sum(axis=1), 1.0)
    assert len(g) == len({tuple(r) for r in g.round(12)})


@pytest.mark.parametrize("probs", [[[0.5, 0.6]], [[1.1, -0.1]], [[0.5, 0.5 - 1e-11]]])
def test_joint_tables_must_be_distributions(probs):
    with pytest.raises(ValueError):
        joint(np.array(probs))
