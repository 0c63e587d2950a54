"""The box LP: one program behind exact 0-1 training and both bound LPs.

Exact training, the lower bound and the worst-case risk all solve

    L(t) = min half_width.|w| - midpoint.w - o   s.t.  rows.w + sizes*o <= t,

built by ``solver.solve_box_lp``.  These tests pin that the three share one
cost vector and hand the simplex only nonnegative right-hand sides, and
check each against an independent scipy formulation.
"""

import itertools

import numpy as np
import pytest
from scipy.optimize import linprog

from mrckit import bounds, features, solver
from mrckit.core import (
    AlphaLoss,
    ConstraintAtoms,
    ExpectationBox,
    LogLoss,
    MrcModel,
    ZeroOneLoss,
    label_blocks,
)
from mrckit.datasets import lattice_joint

LOSSES = (ZeroOneLoss(), LogLoss(), AlphaLoss(2.0), AlphaLoss(0.5))


def random_case(rng, num_classes, r=4, block=3):
    """Random atoms and a random box around a distribution on them."""
    pats = rng.integers(0, 2, size=(r, block)).astype(float)
    pats[:, 0] = 1.0
    atoms = ConstraintAtoms(patterns=np.unique(pats, axis=0), num_classes=num_classes)
    p = rng.random(atoms.count * num_classes)
    p /= p.sum()
    mean = p @ label_blocks(atoms.patterns, num_classes)
    box = ExpectationBox(mean, rng.random(atoms.dim) * 0.5, 25)
    return atoms, box


def random_model(rng, loss, atoms):
    """A dual-feasible model at random weights: the smallest pattern offset."""
    w = rng.normal(size=atoms.dim)
    offset = float(np.min(loss.offset(atoms.scores(w))))
    return MrcModel(loss, w, offset, 0.0, atoms.num_classes)


def distribution_lp(table, box, atoms, sign):
    """min sign * E_p[table] over distributions p on (pattern, label) cells in the box."""
    E = label_blocks(atoms.patterns, atoms.num_classes).T
    res = linprog(
        sign * np.ravel(table),
        A_ub=np.vstack([E, -E]),
        b_ub=np.concatenate([box.upper, -box.lower]),
        A_eq=np.ones((1, E.shape[1])),
        b_eq=[1.0],
        bounds=(0, None),
        method="highs-ds",
    )
    assert res.status == 0
    return sign * res.fun


def subset_lp_value(box, atoms):
    """The 0-1 dual over (w, a >= |w|, o) with one row per pattern and label subset."""
    K, m = atoms.num_classes, atoms.dim
    vectors = label_blocks(atoms.patterns, K).reshape(atoms.count, K, m)
    rows, rhs = [], []
    for j in range(atoms.count):
        for size in range(1, K + 1):
            for subset in itertools.combinations(range(K), size):
                # sum over y in S of (f_j(y).w + o + 1) <= 1
                rows.append(np.concatenate([vectors[j, list(subset)].sum(axis=0), np.zeros(m), [size]]))
                rhs.append(1.0 - size)
    eye = np.eye(m)
    abs_rows = np.hstack([np.vstack([eye, -eye]), np.vstack([-eye, -eye]), np.zeros((2 * m, 1))])
    res = linprog(
        np.concatenate([-box.midpoint, box.half_width, [-1.0]]),
        A_ub=np.vstack([np.array(rows), abs_rows]),
        b_ub=np.concatenate([rhs, np.zeros(2 * m)]),
        bounds=(None, None),
        method="highs-ds",
    )
    assert res.status == 0
    return res.fun


@pytest.mark.parametrize("num_classes", [2, 3, 4])
def test_bounds_match_distribution_programs(num_classes):
    rng = np.random.default_rng(num_classes)
    for _ in range(5):
        atoms, box = random_case(rng, num_classes)
        for loss in LOSSES:
            model = random_model(rng, loss, atoms)
            eps = bounds.model_loss_table(model, atoms)
            assert bounds.lower_bound(model, box, atoms) == pytest.approx(
                distribution_lp(eps, box, atoms, 1.0), abs=1e-9
            )
            assert bounds.worst_case_risk(eps, box, atoms) == pytest.approx(
                distribution_lp(eps, box, atoms, -1.0), abs=1e-9
            )


@pytest.mark.parametrize("num_classes", [2, 3, 4])
def test_exact_training_matches_subset_program(num_classes):
    rng = np.random.default_rng(10 + num_classes)
    for _ in range(5):
        atoms, box = random_case(rng, num_classes)
        model = solver.train_zero_one_exact(box, atoms)
        assert model.objective_value == pytest.approx(subset_lp_value(box, atoms), abs=1e-9)


@pytest.mark.parametrize("num_classes, leaves", [(5, 4), (6, 3)])
def test_exact_training_matches_subset_program_on_lattice(num_classes, leaves):
    data = lattice_joint(np.random.default_rng([1, num_classes]), num_classes).sample(3000, seed=1)
    fm = features.fit_thresholds(data, features.StumpSpec(leaves))
    box = features.estimate_expectations(fm, data, 0.25)
    atoms = features.constraint_atoms(fm, data)
    model = solver.train_zero_one_exact(box, atoms)
    assert model.objective_value == pytest.approx(subset_lp_value(box, atoms), abs=1e-9)


@pytest.mark.parametrize("num_classes", [2, 3, 4])
def test_every_box_lp_shares_one_cost_and_starts_feasible(num_classes, monkeypatch):
    captured = []

    def recording(solve_lp):
        def record(c, A, b, cuts=None):
            captured.append((np.array(c), np.array(b)))
            return solve_lp(c, A, b, cuts)

        return record

    monkeypatch.setattr(solver, "solve_lp", recording(solver.solve_lp))
    monkeypatch.setattr(bounds, "solve_lp", recording(bounds.solve_lp))
    rng = np.random.default_rng(20 + num_classes)
    atoms, box = random_case(rng, num_classes)
    model = solver.train_zero_one_exact(box, atoms)
    bounds.lower_bound(model, box, atoms)
    bounds.worst_case_risk(bounds.model_loss_table(model, atoms), box, atoms)
    assert len(captured) == 3
    for c, b in captured:
        np.testing.assert_array_equal(c, captured[0][0])
        assert np.all(b >= 0.0)
