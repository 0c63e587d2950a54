import math

import numpy as np
import pytest

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
    ExpectationBox,
    LogLoss,
    MrcModel,
    ZeroOneLoss,
)
from mrckit.predictors import predict_probs, rule_probs
from mrckit.solver import SolverConfig, train_mrc, train_zero_one_exact
from test_box_lp import distribution_lp

ZO = ZeroOneLoss()
LG = LogLoss()


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
