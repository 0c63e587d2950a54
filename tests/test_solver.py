import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mrckit import solver
from mrckit.core import (
    AlphaLoss,
    ConstraintAtoms,
    ExpectationBox,
    LogLoss,
    ZeroOneLoss,
    beta_of_alpha,
    label_blocks,
)
from mrckit.datasets import lattice_joint
from mrckit.features import StumpSpec, constraint_atoms, estimate_expectations, fit_thresholds
from mrckit.simplex import solve_lp
from mrckit.solver import (
    ReducedObjective,
    SolverConfig,
    dual_feasibility_residual,
    dual_value,
    max_offset_alpha,
    train_mrc,
    train_zero_one_exact,
)

ZO = ZeroOneLoss()
LG = LogLoss()


def enumerate_offset_zero_one(values):
    """Brute force over every nonempty label subset."""
    k = len(values)
    best = math.inf
    for size in range(1, k + 1):
        for subset in itertools.combinations(range(k), size):
            cand = (1.0 - sum(values[i] + 1.0 for i in subset)) / size
            best = min(best, cand)
    return best


def full_subset_lp(box, atoms):
    """The oracle: the 0-1 box LP with all r * (2^K - 1) (pattern, label
    subset) rows at once, on the same simplex.  Returns the model."""
    K, m = atoms.num_classes, atoms.dim
    # row s - 1 marks the labels of subset s, bit y of s standing for label y
    masks = ((np.arange(1, 2**K)[:, None] >> np.arange(K)) & 1).astype(np.float64)
    sizes = np.tile(masks.sum(axis=1), atoms.count)
    # row (j, S): the sum over labels in S of pattern j's label-block vectors
    rows = (masks @ label_blocks(atoms.patterns, K).reshape(-1, K, m)).reshape(-1, m)
    w = solver.solve_box_lp(box, rows, sizes, 1.0 - sizes, solve_lp)
    return ReducedObjective(ZO, box, atoms).model(w)


def label_frequency_fixture():
    atoms = ConstraintAtoms(patterns=np.ones((1, 1)), num_classes=2)
    box = ExpectationBox([0.5, 0.5], [0.0, 0.0], 4)
    return box, atoms


def random_atoms(rng, num_classes=2, r=3, block=3):
    pats = rng.integers(0, 2, size=(r, block)).astype(float)
    pats[:, 0] = 1.0
    pats = np.unique(pats, axis=0)
    return ConstraintAtoms(patterns=pats, num_classes=num_classes)


def random_box(rng, atoms, n=25):
    """Box around the expectations of a random distribution on the atoms,
    so it always admits at least one distribution."""
    p = rng.random((atoms.count, atoms.num_classes))
    p /= p.sum()
    mean = np.zeros(atoms.dim)
    blk = atoms.block_size
    for j in range(atoms.count):
        for y in range(atoms.num_classes):
            mean[y * blk : (y + 1) * blk] += p[j, y] * atoms.patterns[j]
    return ExpectationBox(mean, rng.random(atoms.dim) * 0.5, n)


# ---------------------------------------------------------------- offsets


def zero_one_offset(v):
    return ZO.offset(np.array([v], dtype=np.float64))[0]


def alpha_offset(v, alpha):
    return max_offset_alpha(np.array([v], dtype=np.float64), alpha)[0][0]


def test_offset_zero_one_examples():
    assert zero_one_offset([0.0, 0.0]) == pytest.approx(-0.5)
    assert zero_one_offset([0.6, -0.8]) == pytest.approx(-0.6)
    assert zero_one_offset([-2.0, -2.0]) == pytest.approx(1.5)


def test_offset_zero_one_equals_enumeration_exactly():
    # dyadic inputs keep every sum exact, so equality is bitwise
    rng = np.random.default_rng(0)
    for k in range(2, 7):
        for _ in range(200):
            v = rng.integers(-512, 512, size=k) / 256.0
            assert zero_one_offset(v) == enumerate_offset_zero_one(v)


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 6).flatmap(lambda k: st.lists(st.integers(-8, 8), min_size=k, max_size=k)))
def test_zero_one_weights_pick_a_smallest_minimizing_subset(ints):
    # dyadic scores drawn from a few values, so ties are common and every sum exact
    v = np.array(ints, dtype=np.float64) / 4.0
    offsets, weights = ZO.active_label_weights(v[None])
    best = enumerate_offset_zero_one(v)
    assert offsets[0] == best
    sizes = [
        size
        for size in range(1, len(v) + 1)
        for sub in itertools.combinations(range(len(v)), size)
        if (1.0 - sum(v[i] + 1.0 for i in sub)) / size == best
    ]
    members = weights[0] > 0.0
    size = int(members.sum())
    assert size == min(sizes)
    assert np.array_equal(weights[0][members], np.full(size, 1.0 / size))
    assert (1.0 - (v[members] + 1.0).sum()) / size == best


def test_offset_zero_one_saturates_constraint():
    rng = np.random.default_rng(1)
    for _ in range(100):
        v = rng.normal(size=4)
        off = zero_one_offset(v)
        assert np.clip(v + off + 1.0, 0.0, None).sum() <= 1.0 + 1e-12
        assert np.clip(v + off + 1e-9 + 1.0, 0.0, None).sum() > 1.0


def test_offset_log_examples():
    def offset(v):
        return LG.offset(np.array([v]))[0]

    assert offset([0.0, 0.0, 0.0]) == pytest.approx(-math.log(3.0))
    assert offset([0.0, 0.0]) == pytest.approx(-math.log(2.0))
    assert offset([0.0, math.log(3.0)]) == pytest.approx(-math.log(4.0))


def test_offset_alpha_closed_forms_at_zero():
    # at zero scores the constraint solves to beta (K^(-1/beta) - 1)
    for alpha in (0.5, 2.0, 4.0):
        beta = beta_of_alpha(alpha)
        for k in (2, 3, 4):
            expect = beta * (k ** (-1.0 / beta) - 1.0)
            got = alpha_offset(np.zeros(k), alpha)
            assert got == pytest.approx(expect, abs=1e-9)
    assert alpha_offset(np.zeros(2), 2.0) == pytest.approx(math.sqrt(2) - 2, abs=1e-9)
    assert alpha_offset(np.zeros(4), 2.0) == pytest.approx(-1.0, abs=1e-9)


def test_offset_alpha_approaches_log_offset():
    rng = np.random.default_rng(2)
    for _ in range(10):
        v = rng.normal(size=3)
        log_offset = -math.log(np.exp(v).sum())
        assert alpha_offset(v, 1.0001) == pytest.approx(log_offset, abs=1e-3)


def test_offset_alpha_saturates_constraint_both_signs():
    rng = np.random.default_rng(3)
    for alpha in (0.5, 0.8, 2.0, 4.0):
        beta = beta_of_alpha(alpha)
        for _ in range(50):
            v = rng.normal(size=3)
            off = alpha_offset(v, alpha)
            t = (v + off) / beta + 1.0
            if beta > 0:
                s = (np.clip(t, 0.0, None) ** beta).sum()
            else:
                assert np.all(t > 0.0)
                s = (t**beta).sum()
            assert s <= 1.0 + 1e-7
            assert s >= 1.0 - 1e-6  # the bound is active at the maximum


# ------------------------------------------------------- reduced objective


def test_reduced_value_at_zero():
    box, atoms = label_frequency_fixture()
    assert ReducedObjective(ZO, box, atoms).evaluate(np.zeros(2))[0] == pytest.approx(0.5)
    assert ReducedObjective(LG, box, atoms).evaluate(np.zeros(2))[0] == pytest.approx(math.log(2))


def test_reduced_value_point_box_identity():
    # with zero widths the objective is -mean.w - min_j offset_j
    rng = np.random.default_rng(4)
    atoms = random_atoms(rng)
    box = ExpectationBox(rng.random(atoms.dim), np.zeros(atoms.dim), 9)
    ro = ReducedObjective(LG, box, atoms)
    for _ in range(20):
        w = rng.normal(size=atoms.dim)
        direct = -box.mean @ w - LG.offset(atoms.scores(w)).min()
        assert ro.evaluate(w)[0] == pytest.approx(direct, abs=1e-12)


def test_interval_objective_equals_l1_regularized_point_objective():
    rng = np.random.default_rng(5)
    for _ in range(200):
        m = int(rng.integers(1, 17))
        mean = rng.random(m)
        widths = rng.random(m)
        n = int(rng.integers(1, 1000))
        w = rng.normal(size=m) * 2.0
        box = ExpectationBox(mean, widths, n)
        lhs = box.half_width @ np.abs(w) - box.midpoint @ w
        rhs = -mean @ w + (widths @ np.abs(w)) / math.sqrt(n)
        assert lhs == pytest.approx(rhs, abs=1e-12)


@pytest.mark.parametrize("loss", [ZO, LG, AlphaLoss(2.0), AlphaLoss(0.5)])
def test_convexity_witness(loss):
    rng = np.random.default_rng(6)
    atoms = random_atoms(rng)
    box = random_box(rng, atoms)
    ro = ReducedObjective(loss, box, atoms)
    for _ in range(50):
        w1 = rng.normal(size=atoms.dim)
        w2 = rng.normal(size=atoms.dim)
        t = rng.random()
        mix = ro.evaluate(t * w1 + (1 - t) * w2)[0]
        assert mix <= t * ro.evaluate(w1)[0] + (1 - t) * ro.evaluate(w2)[0] + 1e-9


@pytest.mark.parametrize("loss", [ZO, LG, AlphaLoss(2.0), AlphaLoss(0.5)])
def test_subgradient_inequality(loss):
    rng = np.random.default_rng(7)
    atoms = random_atoms(rng)
    box = random_box(rng, atoms)
    ro = ReducedObjective(loss, box, atoms)
    for _ in range(50):
        w = rng.normal(size=atoms.dim)
        value, grad = ro.value_and_subgradient(w)[:2]
        assert value == pytest.approx(ro.evaluate(w)[0], abs=1e-9)
        other = w + rng.normal(size=atoms.dim) * 0.3
        assert ro.evaluate(other)[0] >= value + grad @ (other - w) - 1e-8


def test_log_gradient_matches_central_differences():
    rng = np.random.default_rng(8)
    atoms = random_atoms(rng)
    box = random_box(rng, atoms)
    ro = ReducedObjective(LG, box, atoms)
    eps = 1e-6
    for _ in range(10):
        # stay away from |w| kinks so the objective is smooth at w
        w = rng.normal(size=atoms.dim)
        w = np.where(np.abs(w) < 0.1, 0.5, w)
        grad = ro.value_and_subgradient(w)[1]
        fd = np.zeros_like(w)
        for i in range(w.shape[0]):
            e = np.zeros_like(w)
            e[i] = eps
            fd[i] = (ro.evaluate(w + e)[0] - ro.evaluate(w - e)[0]) / (2 * eps)
        denom = max(1.0, np.abs(fd).max())
        assert np.abs(grad - fd).max() / denom < 1e-5


# ------------------------------------------------------------- training


def test_train_label_frequency_zero_one():
    box, atoms = label_frequency_fixture()
    model = train_mrc(ZO, box, atoms, SolverConfig(max_iters=3000))
    assert model.objective_value == pytest.approx(0.5, abs=1e-6)
    assert model.converged


def test_train_label_frequency_log():
    box, atoms = label_frequency_fixture()
    model = train_mrc(LG, box, atoms, SolverConfig(max_iters=3000))
    assert model.objective_value == pytest.approx(math.log(2), abs=1e-6)


def test_huge_widths_drive_weights_to_zero():
    rng = np.random.default_rng(9)
    atoms = random_atoms(rng, r=4)
    box = ExpectationBox(rng.random(atoms.dim), np.full(atoms.dim, 1e6), 25)
    m01 = train_mrc(ZO, box, atoms, SolverConfig(max_iters=2000))
    assert np.abs(m01.weights).max() < 1e-3
    assert m01.objective_value == pytest.approx(0.5, abs=1e-4)
    mlog = train_mrc(LG, box, atoms, SolverConfig(max_iters=2000))
    assert mlog.objective_value == pytest.approx(math.log(2), abs=1e-4)


def test_log_at_a_width_that_overflows_keeps_zero_weights():
    # the iterates overflow float64 within a few steps; the zero start stays
    # the best iterate, and no overflow warning leaves the loop
    atoms = random_atoms(np.random.default_rng(9), r=4)
    box = ExpectationBox(np.full(atoms.dim, 0.25), np.full(atoms.dim, 1e300), 25)
    model = train_mrc(LG, box, atoms, SolverConfig(max_iters=200))
    assert not model.weights.any()
    assert model.objective_value == pytest.approx(math.log(2), abs=1e-12)


def test_exact_lp_label_frequency():
    box, atoms = label_frequency_fixture()
    model = train_zero_one_exact(box, atoms)
    assert model.objective_value == pytest.approx(0.5, abs=1e-9)


def test_exact_lp_single_constant_atom():
    atoms = ConstraintAtoms(patterns=np.ones((1, 1)), num_classes=2)
    box = ExpectationBox([0.4, 0.6], [0.1, 0.1], 16)
    model = train_zero_one_exact(box, atoms)
    ro = ReducedObjective(ZO, box, atoms)
    # hand LP: maximum entropy pulls the dominant label mass to its lower
    # endpoint, 0.6 - 0.1/sqrt(16) = 0.575, so the value is 1 - 0.575
    assert model.objective_value == pytest.approx(0.425, abs=1e-9)
    assert ro.evaluate(model.weights)[0] == pytest.approx(model.objective_value)


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_classes=st.integers(2, 5),
    r=st.integers(1, 6),
    zero_widths=st.booleans(),
)
def test_exact_matches_the_full_subset_lp(seed, num_classes, r, zero_widths):
    rng = np.random.default_rng(seed)
    atoms = random_atoms(rng, num_classes=num_classes, r=r)
    box = random_box(rng, atoms)
    if zero_widths:
        box = ExpectationBox(box.midpoint, np.zeros(atoms.dim), box.n)
    model = train_zero_one_exact(box, atoms)
    oracle = full_subset_lp(box, atoms)
    value = model.objective_value
    assert abs(value - oracle.objective_value) <= 1e-9 * (1.0 + abs(value))
    assert dual_feasibility_residual(model, atoms) <= 0.0
    assert model.converged


def test_exact_lp_trains_thirteen_classes():
    # one pattern, zero widths: the only distribution is uniform on 13
    # labels, whose minimax 0-1 risk is 1 - 1/13
    atoms = ConstraintAtoms(patterns=np.ones((1, 1)), num_classes=13)
    box = ExpectationBox(np.full(13, 1 / 13), np.zeros(13), 4)
    model = train_zero_one_exact(box, atoms)
    assert model.converged
    assert model.objective_value == pytest.approx(12 / 13, abs=1e-9)
    assert dual_feasibility_residual(model, atoms) <= 0.0


def lattice_fit_inputs(num_classes, leaves, seed=1):
    data = lattice_joint(np.random.default_rng([1, num_classes]), num_classes).sample(3000, seed)
    fm = fit_thresholds(data, StumpSpec(leaves))
    return estimate_expectations(fm, data, 0.25), constraint_atoms(fm, data)


def test_round_budget_is_read_and_convergence_certified():
    # this K=4 table needs several rounds of constraint generation
    box, atoms = lattice_fit_inputs(4, 4)
    cut = train_zero_one_exact(box, atoms, SolverConfig(max_iters=1))
    assert cut.converged is False
    assert np.isfinite(cut.objective_value)
    assert dual_feasibility_residual(cut, atoms) <= 0.0
    full = train_zero_one_exact(box, atoms)
    assert full.converged is True
    assert full.objective_value < cut.objective_value
    assert full.objective_value == pytest.approx(
        full_subset_lp(box, atoms).objective_value, abs=1e-9
    )


def test_an_exact_round_scores_the_table_once(monkeypatch):
    # rounds are the simplex's calls back at its optima; scorings are the
    # table's; the round's value, offsets and cut subsets share one scoring
    box, atoms = lattice_fit_inputs(4, 4)
    counts = {"rounds": 0, "scores": 0}
    scores, lp = ConstraintAtoms.scores, solver.solve_lp

    def counted_scores(self, weights):
        counts["scores"] += 1
        return scores(self, weights)

    def counted_lp(c, A, b, cuts=None):
        def counted_cuts(x):
            counts["rounds"] += 1
            return cuts(x)

        return lp(c, A, b, cuts=counted_cuts)

    monkeypatch.setattr(ConstraintAtoms, "scores", counted_scores)
    monkeypatch.setattr(solver, "solve_lp", counted_lp)
    model = train_zero_one_exact(box, atoms)
    assert model.converged
    assert counts["rounds"] >= 2
    assert counts["scores"] == counts["rounds"]


def test_zero_one_train_mrc_is_the_exact_path():
    box, atoms = lattice_fit_inputs(3, 4)
    cfg = SolverConfig(max_iters=50)
    model = train_mrc(ZO, box, atoms, cfg)
    exact = train_zero_one_exact(box, atoms, cfg)
    assert model.converged
    assert np.array_equal(model.weights, exact.weights)
    assert model.objective_value == exact.objective_value


@pytest.mark.parametrize("loss", [ZO, LG, AlphaLoss(2.0), AlphaLoss(0.5)])
def test_emitted_models_are_dual_feasible(loss):
    rng = np.random.default_rng(11)
    for _ in range(3):
        atoms = random_atoms(rng, r=4)
        box = random_box(rng, atoms)
        model = train_mrc(loss, box, atoms, SolverConfig(max_iters=500))
        assert dual_feasibility_residual(model, atoms) <= 1e-6


def test_exact_lp_model_is_dual_feasible():
    rng = np.random.default_rng(12)
    atoms = random_atoms(rng, r=5)
    box = random_box(rng, atoms)
    model = train_zero_one_exact(box, atoms)
    assert dual_feasibility_residual(model, atoms) <= 1e-9


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), num_classes=st.integers(2, 4))
def test_emitted_zero_one_and_log_box_models_are_feasible_in_floating_point(seed, num_classes):
    rng = np.random.default_rng(seed)
    atoms = random_atoms(rng, num_classes=num_classes, r=5)
    box = random_box(rng, atoms)
    models = [train_mrc(loss, box, atoms, SolverConfig(max_iters=200)) for loss in (ZO, LG)]
    models.append(train_zero_one_exact(box, atoms))
    for model in models:
        assert dual_feasibility_residual(model, atoms) <= 0.0


def test_exact_lp_offset_rounds_to_the_feasible_side():
    # the LP's offset on this K=4 lattice sample is -1.0, 2.2e-16 infeasible
    rng = np.random.default_rng([1, 2])
    joint = lattice_joint(rng)
    joint.sample(900, rng.integers(2**32))
    rng.integers(2**31)
    data = joint.sample(3000, rng.integers(2**32))
    fm = fit_thresholds(data, StumpSpec(4))
    atoms = constraint_atoms(fm, data)
    box = estimate_expectations(fm, data, 0.25)
    model = train_zero_one_exact(box, atoms, feature_map=fm)
    assert dual_feasibility_residual(model, atoms) <= 0.0
    assert -1.0 - 1e-14 < model.offset < -1.0
    assert model.objective_value == dual_value(
        model.weights, box.half_width, box.midpoint, model.offset
    )


def test_exact_lp_flags_empty_box():
    # intercept coordinates of any distribution sum to 1; this box forbids that
    atoms = ConstraintAtoms(patterns=np.ones((1, 1)), num_classes=2)
    box = ExpectationBox([0.9, 0.9], [0.0, 0.0], 4)
    with pytest.raises(RuntimeError):
        train_zero_one_exact(box, atoms)


def test_nonconvergence_is_flagged_not_raised():
    rng = np.random.default_rng(13)
    atoms = random_atoms(rng, r=4)
    box = random_box(rng, atoms)
    model = train_mrc(LG, box, atoms, SolverConfig(max_iters=3, c=5.0))
    assert model.converged is False
    assert np.isfinite(model.objective_value)
