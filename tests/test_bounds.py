import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mrckit.bounds import (
    bound_report,
    generalization_slack,
    lower_bound,
    model_loss_table,
    upper_bound,
    worst_case_risk,
)
from mrckit.core import (
    AlphaLoss,
    ConstraintAtoms,
    Dataset,
    ExpectationBox,
    LogLoss,
    MrcModel,
    ZeroOneLoss,
    pattern_scores,
)
from mrckit.data_io import load_dataset
from mrckit.features import StumpSpec, constraint_atoms, estimate_expectations, fit_thresholds
from mrckit.marginals import train_adversarial01, train_logreg
from mrckit.predictors import empirical_risk, predict_probs, rule_probs
from mrckit.solver import SolverConfig, dual_feasibility_residual, train_mrc, train_zero_one_exact
from test_box_lp import distribution_lp

ZO = ZeroOneLoss()
LG = LogLoss()
DEMO = Path(__file__).resolve().parent.parent / "data" / "two_class_demo.csv"


def label_frequency_fixture():
    atoms = ConstraintAtoms(patterns=np.ones((1, 1)), num_classes=2)
    box = ExpectationBox([0.5, 0.5], [0.0, 0.0], 4)
    return box, atoms


def uniform_model(loss, atoms, offset):
    return MrcModel(
        loss=loss,
        weights=np.zeros(atoms.dim),
        offset=offset,
        objective_value=-offset,
        num_classes=atoms.num_classes,
    )


def random_setup(rng, num_classes=2, r=3, block=2, n=25, width_scale=0.5):
    pats = rng.integers(0, 2, size=(r, block)).astype(float)
    pats[:, 0] = 1.0
    atoms = ConstraintAtoms(patterns=np.unique(pats, axis=0), num_classes=num_classes)
    p = rng.random((atoms.count, num_classes))
    p /= p.sum()
    mean = np.zeros(atoms.dim)
    blk = atoms.block_size
    for j in range(atoms.count):
        for y in range(num_classes):
            mean[y * blk : (y + 1) * blk] += p[j, y] * atoms.patterns[j]
    box = ExpectationBox(mean, rng.random(atoms.dim) * width_scale, n)
    return box, atoms


def test_upper_bound_uniform_models():
    _, atoms = label_frequency_fixture()
    box = ExpectationBox([0.5, 0.5], [0.0, 0.0], 4)
    m01 = uniform_model(ZO, atoms, -0.5)
    assert upper_bound(m01, box) == pytest.approx(0.5)
    mlog = uniform_model(LG, atoms, -math.log(2))
    assert upper_bound(mlog, box) == pytest.approx(math.log(2))


def test_upper_bound_equals_objective_value():
    rng = np.random.default_rng(0)
    box, atoms = random_setup(rng)
    model = train_mrc(ZO, box, atoms, SolverConfig(max_iters=2000))
    assert upper_bound(model, box) == pytest.approx(model.objective_value, abs=1e-9)


def test_loss_table_zero_one_uniform():
    _, atoms = label_frequency_fixture()
    model = uniform_model(ZO, atoms, -0.5)
    table = model_loss_table(model, atoms)
    np.testing.assert_allclose(table, 0.5)


def test_loss_table_log_uniform():
    atoms = ConstraintAtoms(patterns=np.ones((1, 1)), num_classes=3)
    model = uniform_model(LG, atoms, -math.log(3))
    np.testing.assert_allclose(model_loss_table(model, atoms), math.log(3))


def test_loss_table_zero_one_degenerate_branch():
    # offset -1 zeroes every positive part, forcing the 1 - 1/K fallback
    _, atoms = label_frequency_fixture()
    model = uniform_model(ZO, atoms, -1.0)
    np.testing.assert_allclose(model_loss_table(model, atoms), 0.5)


def test_loss_tables_match_generic_rule_route():
    # for 0-1 and log, the closed forms equal the loss of the emitted rule
    rng = np.random.default_rng(1)
    for loss in (ZO, LG):
        box, atoms = random_setup(rng, r=4)
        model = train_mrc(loss, box, atoms, SolverConfig(max_iters=1500))
        closed = model_loss_table(model, atoms)
        rows = rule_probs(loss, atoms.scores(model.weights), model.offset)
        generic = loss.loss_table(rows)
        np.testing.assert_allclose(closed, generic, atol=1e-10)


def test_lower_bound_pinches_on_label_frequency():
    box, atoms = label_frequency_fixture()
    m01 = uniform_model(ZO, atoms, -0.5)
    assert lower_bound(m01, box, atoms) == pytest.approx(0.5, abs=1e-9)
    mlog = uniform_model(LG, atoms, -math.log(2))
    assert lower_bound(mlog, box, atoms) == pytest.approx(math.log(2), abs=1e-9)


def test_lower_bound_duality_self_check():
    rng = np.random.default_rng(2)
    for loss in (ZO, LG, AlphaLoss(2.0)):
        for _ in range(5):
            box, atoms = random_setup(rng, r=4)
            model = train_mrc(loss, box, atoms, SolverConfig(max_iters=1500))
            a = lower_bound(model, box, atoms)
            b = distribution_lp(model_loss_table(model, atoms), box, atoms, 1.0)
            assert a == pytest.approx(b, abs=1e-8)


def test_sandwich_on_trained_models():
    rng = np.random.default_rng(3)
    for loss in (ZO, LG, AlphaLoss(2.0), AlphaLoss(0.5)):
        for _ in range(5):
            box, atoms = random_setup(rng, r=4)
            model = train_mrc(loss, box, atoms, SolverConfig(max_iters=3000))
            up = upper_bound(model, box)
            lo = lower_bound(model, box, atoms)
            table = model_loss_table(model, atoms)
            mid = worst_case_risk(table, box, atoms)
            assert lo <= mid + 1e-8
            assert mid <= up + 1e-6  # worst case of the own rule at most the dual value


def test_zero_width_lower_bound_does_not_exceed_the_empirical_risk():
    # at zero width the box is the empirical mean alone, so the exact 0-1
    # model's risk on its training data meets both bounds: the lower bound,
    # read at the LP's weights, must not land above it by rounding
    data = load_dataset(str(DEMO))
    fm = fit_thresholds(data, StumpSpec(20))
    atoms = constraint_atoms(fm, data)
    box = estimate_expectations(fm, data, 0.0, atoms)
    model = train_mrc(ZO, box, atoms, feature_map=fm)
    report = bound_report(model, box, atoms)
    risk = empirical_risk(ZO, predict_probs(model, data.instances), data)
    assert report.lower <= risk <= report.upper


def test_worst_case_uniform_rule():
    box, atoms = label_frequency_fixture()
    table = ZO.loss_table(np.full((1, 2), 0.5))
    assert worst_case_risk(table, box, atoms) == pytest.approx(0.5, abs=1e-9)


def test_worst_case_dominates_lower_bound():
    rng = np.random.default_rng(4)
    box, atoms = random_setup(rng, r=4)
    model = train_mrc(ZO, box, atoms, SolverConfig(max_iters=1500))
    table = model_loss_table(model, atoms)
    assert worst_case_risk(table, box, atoms) >= lower_bound(model, box, atoms) - 1e-8


def test_upper_monotone_in_widths_with_exact_retraining():
    rng = np.random.default_rng(5)
    for _ in range(50):
        box, atoms = random_setup(rng, r=3)
        grown = ExpectationBox(
            box.mean, box.widths + rng.random(box.dim) * 0.5, box.n
        )
        small = train_zero_one_exact(box, atoms)
        large = train_zero_one_exact(grown, atoms)
        assert large.objective_value >= small.objective_value - 1e-8


def test_fixed_model_bounds_monotone_in_widths():
    rng = np.random.default_rng(6)
    for _ in range(50):
        box, atoms = random_setup(rng, r=3)
        grown = ExpectationBox(
            box.mean, box.widths + rng.random(box.dim) * 0.5, box.n
        )
        model = train_zero_one_exact(box, atoms)
        assert upper_bound(model, grown) >= upper_bound(model, box) - 1e-8
        assert lower_bound(model, grown, atoms) <= lower_bound(model, box, atoms) + 1e-8


def test_generalization_slack_values():
    terms = generalization_slack([1.0, 0.5], [1.5, -0.5], 4)
    assert terms["interval_slack"] == pytest.approx(2.0)
    assert terms["point_slack"] == pytest.approx(1.0)
    assert generalization_slack([0.0, 0.0], [1.5, -0.5], 4)["interval_slack"] == 0.0
    assert generalization_slack([1.0, 1.0], [0.0, 0.0], 4)["point_slack"] == 0.0


def test_bound_report_structure():
    box, atoms = label_frequency_fixture()
    model = uniform_model(ZO, atoms, -0.5)
    report = bound_report(model, box, atoms)
    assert report.lower <= report.upper + 1e-8
    assert set(report.slack_terms) == {"interval_slack", "point_slack"}


def test_sandwich_coverage_on_known_distribution():
    # with widths at 95% confidence the sandwich must hold in >= 45/50 runs
    from mrckit.datasets import eight_point_joint
    from mrckit.features import (
        StumpSpec,
        constraint_atoms,
        estimate_expectations,
        fit_thresholds,
        hoeffding_widths,
    )

    joint = eight_point_joint()
    hits = 0
    for rep in range(50):
        train = joint.sample(120, seed=[808, rep])
        fm = fit_thresholds(train, StumpSpec(20))
        box = estimate_expectations(fm, train, hoeffding_widths(fm, 0.05))
        atoms = constraint_atoms(fm, train)
        model = train_zero_one_exact(box, atoms, feature_map=fm)
        report = bound_report(model, box, atoms)
        risk = joint.exact_risk(ZO, predict_probs(model, joint.instances))
        hits += report.lower <= risk <= report.upper
    assert hits >= 45


def test_bounds_refuse_fixed_marginal_models():
    from mrckit.datasets import two_class_demo_joint
    from mrckit.features import StumpSpec, constraint_atoms, estimate_expectations, fit_thresholds
    from mrckit.marginals import train_adversarial01
    from mrckit.solver import dual_feasibility_residual

    data = two_class_demo_joint().sample(100, seed=0)
    fm = fit_thresholds(data, StumpSpec(4))
    model = train_adversarial01(data, fm, 0.25, SolverConfig(max_iters=20))
    box = estimate_expectations(fm, data, 0.25)
    atoms = constraint_atoms(fm, data)
    for call in (
        lambda: upper_bound(model, box),
        lambda: lower_bound(model, box, atoms),
        lambda: dual_feasibility_residual(model, atoms),
    ):
        with pytest.raises(ValueError, match="instance_marginal"):
            call()


def assert_certified_rule_is_emitted(data, fm, iters):
    """For every trainer: at one row of each training pattern, the rule of
    the pattern's scores is ``predict_probs``'s row, and a box model's bound
    loss table and feasibility residual read those same scores, bit for bit."""
    atoms = constraint_atoms(fm, data)
    box = estimate_expectations(fm, data, 0.25, atoms)
    cfg = SolverConfig(max_iters=iters)
    models = [
        train_zero_one_exact(box, atoms, cfg, feature_map=fm),
        *(train_mrc(loss, box, atoms, cfg, feature_map=fm) for loss in (ZO, LG, AlphaLoss(2.0))),
        train_logreg(data, fm, 0.25, cfg, atoms),
        train_adversarial01(data, fm, 0.25, cfg, atoms),
    ]
    # cells come in pattern order, so the first row of each is pattern j's
    X = data.instances[np.unique(fm.cells(data.instances)[1], return_index=True)[1]]
    for model in models:
        scores = pattern_scores(atoms.patterns, model.weights)
        emitted = predict_probs(model, X)
        assert rule_probs(model.loss, scores, model.offset).tobytes() == emitted.tobytes()
        if model.offset is None:
            continue
        table = model_loss_table(model, atoms)
        assert table.tobytes() == model.loss.rule_loss(scores, model.offset).tobytes()
        # log's table is logsumexp - score, not -log of the rule: its rows
        # agree through the scores above
        if model.loss != LG:
            assert table.tobytes() == model.loss.loss_table(emitted).tobytes()
        residual = model.loss.residual(scores, model.offset)
        assert dual_feasibility_residual(model, atoms) == residual


def test_the_certified_rule_is_the_emitted_rule():
    # 2-D Gaussian instances, block 39: BLAS and a sequential sum of the
    # patterns' weights round differently on most of its 219 patterns
    rng = np.random.default_rng(0)
    X = rng.normal(size=(3000, 2))
    y = np.where(X[:, 0] + 0.5 * X[:, 1] + rng.normal(scale=0.7, size=3000) > 0, 2, 1)
    data = Dataset(instances=X, labels=y, num_classes=2)
    assert_certified_rule_is_emitted(data, fit_thresholds(data, StumpSpec(20)), 300)


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(1, 80),
    dims=st.integers(1, 3),
    k=st.integers(2, 4),
    max_leaves=st.integers(2, 8),
    seed=st.integers(0, 2**32 - 1),
)
def test_the_certified_rule_is_the_emitted_rule_on_drawn_tables(n, dims, k, max_leaves, seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, dims)).round(1)
    data = Dataset(instances=X, labels=rng.integers(1, k + 1, n), num_classes=k)
    assert_certified_rule_is_emitted(data, fit_thresholds(data, StumpSpec(max_leaves)), 60)
