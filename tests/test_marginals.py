import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mrckit import marginals
from mrckit.core import LOG, ZERO_ONE, ConstraintAtoms, Dataset, FeatureMap, LogLoss, ZeroOneLoss
from mrckit.core import pattern_scores
from mrckit.features import (
    StumpSpec,
    constraint_atoms,
    feature_mean,
    fit_thresholds,
    widths_vector,
)
from mrckit.marginals import (
    adversarial01_objective,
    logreg_objective,
    predict_fixed_marginal,
    train_adversarial01,
    train_logreg,
)
from mrckit.solver import (
    ReducedDual,
    SolverConfig,
    max_offset_log,
    max_offset_zero_one,
    subgradient_minimize,
)


def random_data(rng, n=40, dim=2, k=2):
    return Dataset(
        instances=rng.normal(size=(n, dim)).round(1),
        labels=rng.integers(1, k + 1, size=n),
        num_classes=k,
    )


def minimax_hinge_erm(w, fm, data):
    """Subset-enumeration form of the adversarial 0-1 empirical risk."""
    s = pattern_scores(fm.indicator_matrix(data.instances), w)
    k = fm.num_classes
    total = 0.0
    for i in range(data.n):
        best = -math.inf
        for size in range(1, k + 1):
            for subset in itertools.combinations(range(k), size):
                val = (
                    sum(s[i, c] - s[i, data.labels[i] - 1] for c in subset) + size - 1
                ) / size
                best = max(best, val)
        total += best
    return total / data.n


def logistic_erm(w, fm, data):
    s = pattern_scores(fm.indicator_matrix(data.instances), w)
    picked = s[np.arange(data.n), data.labels - 1]
    return float(np.mean(np.log(np.exp(s).sum(axis=1)) - picked))


def test_instance_offsets_examples():
    fm = FeatureMap(num_classes=3, thresholds=())
    # zero weights: min over subset sizes of (1 - k)/k = -2/3 and -log 3
    scores = pattern_scores(fm.indicator_matrix([[0.0]]), np.zeros(3))
    assert ZeroOneLoss().offset(scores)[0] == pytest.approx(-2.0 / 3.0)
    assert LogLoss().offset(scores)[0] == pytest.approx(-math.log(3.0))


def test_instance_offsets_match_atom_offsets():
    rng = np.random.default_rng(0)
    fm = FeatureMap(num_classes=2, thresholds=((1, 0.0),))
    for _ in range(50):
        w = rng.normal(size=fm.dim)
        x = rng.normal(size=1)
        scores = pattern_scores(fm.indicator_matrix(x[None, :]), w)
        assert ZeroOneLoss().offset(scores)[0] == max_offset_zero_one(scores)[0]
        assert LogLoss().offset(scores)[0] == max_offset_log(scores)[0]


def test_adversarial_objective_at_zero():
    rng = np.random.default_rng(1)
    for k in (2, 3):
        data = random_data(rng, k=k)
        fm = fit_thresholds(data, StumpSpec(4))
        value, _ = adversarial01_objective(np.zeros(fm.dim), constraint_atoms(fm, data), 0.0)
        assert value == pytest.approx(1.0 - 1.0 / k)


def test_adversarial_objective_equals_minimax_hinge():
    rng = np.random.default_rng(2)
    for k in (2, 3, 4):
        data = random_data(rng, n=25, k=k)
        fm = fit_thresholds(data, StumpSpec(3))
        for _ in range(20):
            w = rng.normal(size=fm.dim)
            value, _ = adversarial01_objective(w, constraint_atoms(fm, data), 0.0)
            assert value == pytest.approx(minimax_hinge_erm(w, fm, data), abs=1e-12)


def test_adversarial_l1_term():
    rng = np.random.default_rng(3)
    data = random_data(rng)
    fm = fit_thresholds(data, StumpSpec(3))
    w = rng.normal(size=fm.dim)
    bare, _ = adversarial01_objective(w, constraint_atoms(fm, data), 0.0)
    reg, _ = adversarial01_objective(w, constraint_atoms(fm, data), 0.5)
    assert reg == pytest.approx(bare + 0.5 * np.abs(w).sum() / math.sqrt(data.n))


def test_logreg_objective_at_zero():
    rng = np.random.default_rng(4)
    data = random_data(rng, k=3)
    fm = fit_thresholds(data, StumpSpec(3))
    value, _ = logreg_objective(np.zeros(fm.dim), constraint_atoms(fm, data), 0.0)
    assert value == pytest.approx(math.log(3.0))


def test_logreg_objective_equals_mean_nll():
    rng = np.random.default_rng(5)
    for k in (2, 3):
        data = random_data(rng, k=k)
        fm = fit_thresholds(data, StumpSpec(3))
        for _ in range(20):
            w = rng.normal(size=fm.dim)
            value, _ = logreg_objective(w, constraint_atoms(fm, data), 0.0)
            assert value == pytest.approx(logistic_erm(w, fm, data), abs=1e-12)


def test_logreg_single_sample_hand_formula():
    # one sample, two labels, one threshold separating them: the objective is
    # log(1 + exp(-margin)) in the effective score difference
    data = Dataset(instances=[[0.0]], labels=[1], num_classes=2)
    fm = FeatureMap(num_classes=2, thresholds=((1, 0.5),))
    for margin in (0.0, 1.0, -1.0):
        # psi = [1, 1] here, so only the intercept coordinate carries weight
        w = np.array([margin, 0.0, 0.0, 0.0])
        value, _ = logreg_objective(w, constraint_atoms(fm, data), 0.0)
        assert value == pytest.approx(math.log(1.0 + math.exp(-margin)), abs=1e-12)


def test_logreg_gradient_matches_central_differences():
    rng = np.random.default_rng(6)
    data = random_data(rng, n=30)
    fm = fit_thresholds(data, StumpSpec(3))
    eps = 1e-6
    for _ in range(5):
        w = rng.normal(size=fm.dim)
        w = np.where(np.abs(w) < 0.1, 0.4, w)  # avoid the |w| kink
        _, grad = logreg_objective(w, constraint_atoms(fm, data), 0.3)
        fd = np.zeros_like(w)
        for i in range(fm.dim):
            e = np.zeros_like(w)
            e[i] = eps
            fd[i] = (
                logreg_objective(w + e, constraint_atoms(fm, data), 0.3)[0]
                - logreg_objective(w - e, constraint_atoms(fm, data), 0.3)[0]
            ) / (2 * eps)
        assert np.abs(grad - fd).max() / max(1.0, np.abs(fd).max()) < 1e-5


def test_adversarial_training_drives_separable_loss_down():
    rng = np.random.default_rng(7)
    x = np.concatenate([rng.normal(-2.0, 0.3, 40), rng.normal(2.0, 0.3, 40)])
    data = Dataset(
        instances=x[:, None], labels=[1] * 40 + [2] * 40, num_classes=2
    )
    fm = fit_thresholds(data, StumpSpec(4))
    model = train_adversarial01(data, fm, 0.0, SolverConfig(max_iters=20000, c=1.0))
    assert model.variant == "instance_marginal"
    assert model.offset is None
    assert model.objective_value < 0.05


def test_logreg_training_matches_scipy_optimum():
    from scipy.optimize import minimize

    rng = np.random.default_rng(8)
    data = random_data(rng, n=60)
    fm = fit_thresholds(data, StumpSpec(3))
    model = train_logreg(data, fm, 0.0, SolverConfig(max_iters=30000, c=1.0))
    ref = minimize(
        lambda w: logreg_objective(w, constraint_atoms(fm, data), 0.0)[0],
        np.zeros(fm.dim),
        jac=lambda w: logreg_objective(w, constraint_atoms(fm, data), 0.0)[1],
        method="L-BFGS-B",
    )
    # subgradient steps close in at O(1/sqrt(T)); 1e-2 is what the budget buys
    assert model.objective_value <= ref.fun + 1e-2
    assert model.objective_value >= ref.fun - 1e-9


def test_predict_fixed_marginal_rules():
    rng = np.random.default_rng(9)
    data = random_data(rng, n=30)
    fm = fit_thresholds(data, StumpSpec(3))
    for trainer in (train_adversarial01, train_logreg):
        model = trainer(data, fm, 0.25, SolverConfig(max_iters=500))
        probs = predict_fixed_marginal(model, data.instances)
        assert np.all(probs >= -1e-12)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)


def test_fixed_marginal_log_rule_is_softmax():
    rng = np.random.default_rng(10)
    data = random_data(rng, n=30)
    fm = fit_thresholds(data, StumpSpec(3))
    model = train_logreg(data, fm, 0.0, SolverConfig(max_iters=300))
    probs = predict_fixed_marginal(model, data.instances)
    s = pattern_scores(fm.indicator_matrix(data.instances), model.weights)
    e = np.exp(s - s.max(axis=1, keepdims=True))
    np.testing.assert_allclose(probs, e / e.sum(axis=1, keepdims=True), atol=1e-12)


def test_fixed_marginal_zero_one_uniform_at_zero_weights():
    data = Dataset(instances=[[0.0], [1.0]], labels=[1, 2], num_classes=2)
    fm = FeatureMap(num_classes=2, thresholds=((1, 0.5),))
    model = train_adversarial01(data, fm, 1e9, SolverConfig(max_iters=50))
    probs = predict_fixed_marginal(model, data.instances)
    np.testing.assert_allclose(probs, 0.5, atol=1e-6)


def rebuilt_dual_fit(loss, data, fm, widths, cfg):
    """Reference fixed-marginal fit that rebuilds the whole dual, its
    regularizer widths/sqrt(n) included, at every subgradient step."""
    atoms = constraint_atoms(fm, data)

    def dual():
        reg = widths_vector(widths, atoms.dim) / np.sqrt(atoms.n)
        return ReducedDual(loss, atoms, reg, feature_mean(atoms), atoms.frequencies)

    best_w, converged = subgradient_minimize(lambda w: dual().evaluate(w)[:2], fm.dim, cfg)
    return dual().model(best_w, fm, converged)


@settings(max_examples=40, deadline=None)
@given(k=st.integers(2, 4), seed=st.integers(0, 2**32 - 1), scalar=st.booleans())
def test_fits_are_bit_identical_to_rebuilding_the_dual_per_step(k, seed, scalar):
    rng = np.random.default_rng(seed)
    data = random_data(rng, n=30, k=k)
    fm = fit_thresholds(data, StumpSpec(3))
    widths = float(rng.uniform(0.0, 1.0)) if scalar else rng.uniform(0.0, 1.0, fm.dim)
    cfg = SolverConfig(max_iters=150)
    for loss, trainer in ((LOG, train_logreg), (ZERO_ONE, train_adversarial01)):
        got, ref = trainer(data, fm, widths, cfg), rebuilt_dual_fit(loss, data, fm, widths, cfg)
        assert np.array_equal(got.weights, ref.weights)
        assert got.objective_value == ref.objective_value
        assert got.converged == ref.converged


@pytest.mark.parametrize("trainer", [train_logreg, train_adversarial01])
def test_a_fit_builds_its_regularizer_once(monkeypatch, trainer):
    calls = []

    def counted(*args):
        calls.append(args)
        return widths_vector(*args)

    monkeypatch.setattr(marginals, "widths_vector", counted)
    rng = np.random.default_rng(11)
    data = random_data(rng, k=3)
    trainer(data, fit_thresholds(data, StumpSpec(3)), 0.25, SolverConfig(max_iters=50))
    assert len(calls) == 1  # not once per objective call and once for the model


@pytest.mark.parametrize("trainer", [train_logreg, train_adversarial01])
def test_a_fit_takes_the_callers_table(trainer):
    rng = np.random.default_rng(14)
    data = random_data(rng, k=3)
    fm = fit_thresholds(data, StumpSpec(3))
    cfg = SolverConfig(max_iters=50)
    own = trainer(data, fm, 0.25, cfg)
    given = trainer(data, fm, 0.25, cfg, atoms=constraint_atoms(fm, data))
    assert np.array_equal(given.weights, own.weights)
    assert given.objective_value == own.objective_value

    half = Dataset(instances=data.instances[:20], labels=data.labels[:20], num_classes=3)
    two = Dataset(instances=data.instances, labels=np.where(data.labels == 3, 1, data.labels),
                  num_classes=2)
    other = fit_thresholds(data, StumpSpec(2))
    mismatched = [
        constraint_atoms(fm, half),  # another row count
        constraint_atoms(fit_thresholds(two, StumpSpec(3)), two),  # another class count
        constraint_atoms(other, data),  # another dimension
        ConstraintAtoms.from_instances(fm, data.instances),  # no label counts
    ]
    assert other.dim != fm.dim
    for atoms in mismatched:
        with pytest.raises(ValueError, match="not a table"):
            trainer(data, fm, 0.25, cfg, atoms=atoms)


def test_one_table_serves_every_widths_value_as_a_fresh_table():
    rng = np.random.default_rng(12)
    data = random_data(rng, k=3)
    fm = fit_thresholds(data, StumpSpec(3))
    atoms = constraint_atoms(fm, data)
    w = rng.normal(size=fm.dim)
    vector = rng.uniform(0.0, 1.0, fm.dim)
    for widths in (0.0, 0.5, vector, list(vector), 0.0):
        for objective in (logreg_objective, adversarial01_objective):
            value, grad = objective(w, atoms, widths)
            fresh_value, fresh_grad = objective(w, constraint_atoms(fm, data), widths)
            assert value == fresh_value
            assert np.array_equal(grad, fresh_grad)
    assert len(atoms.regularizers) == 3  # the list shares the vector's entry
    assert not any(reg.flags.writeable for reg in atoms.regularizers.values())


def test_bad_widths_raise_on_every_call():
    rng = np.random.default_rng(13)
    data = random_data(rng, k=3)
    fm = fit_thresholds(data, StumpSpec(3))
    atoms = constraint_atoms(fm, data)
    w = rng.normal(size=fm.dim)
    vector = np.full(fm.dim, 0.5)
    pairs = [
        (vector, vector.reshape(1, -1)),  # same bytes, wrong shape
        (0.0, np.zeros(1)),  # same bytes as the scalar, wrong length
        (vector, np.full(fm.dim + 1, 0.5)),
        (vector, -vector),
        (0.5, -0.5),
        (0.5, math.nan),
        (vector, np.where(np.arange(fm.dim) == 1, math.nan, vector)),
    ]
    for objective in (logreg_objective, adversarial01_objective):
        for good, bad in pairs:
            objective(w, atoms, good)
            for _ in range(2):
                with pytest.raises(ValueError):
                    objective(w, atoms, bad)
