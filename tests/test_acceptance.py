"""Acceptance suite: one test per shipped guarantee, at fixed tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  Budgets: the whole module stays well inside the per-criterion
runtime limits it encodes.
"""

import csv
import itertools
import json
import math
import time

import numpy as np
import pytest

from mrckit.bounds import lower_bound, upper_bound
from mrckit.cli import main
from mrckit.core import (
    AlphaLoss,
    ConstraintAtoms,
    ExpectationBox,
    FeatureMap,
    LogLoss,
    ZeroOneLoss,
    beta_of_alpha,
    pattern_scores,
)
from mrckit.datasets import eight_point_joint, two_class_demo_joint
from mrckit.data_io import save_dataset
from mrckit.features import (
    StumpSpec,
    constraint_atoms,
    estimate_expectations,
    fit_thresholds,
    hoeffding_widths,
)
from mrckit.marginals import adversarial01_objective, logreg_objective
from mrckit.oracle import brute_force_max_entropy, cell_features
from mrckit.predictors import (
    predict_probs,
    rule_probs,
    sample_labels,
)
from mrckit.solver import (
    ReducedObjective,
    SolverConfig,
    max_offset_alpha,
    subgradient_minimize,
    train_zero_one_exact,
)

ZO = ZeroOneLoss()
LG = LogLoss()


def _report(tag, ok, detail=""):
    print(f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{tag} failed: {detail}"


def _tiny_fixtures():
    """Five instances with |X| <= 3, two labels, mixed widths."""
    fm1 = FeatureMap(num_classes=2, thresholds=())
    fm2 = FeatureMap(num_classes=2, thresholds=((1, 0.5),))
    fm3 = FeatureMap(num_classes=2, thresholds=((1, 0.5), (1, 1.5)))
    x1 = np.array([[0.0]])
    x2 = np.array([[0.0], [1.0]])
    x3 = np.array([[0.0], [1.0], [2.0]])
    j1 = np.array([[0.5, 0.5]])
    j2 = np.array([[0.30, 0.10], [0.15, 0.45]])
    j3 = np.array([[0.25, 0.05], [0.10, 0.20], [0.05, 0.35]])
    out = []
    for fm, X, joint, widths in (
        (fm1, x1, j1, 0.0),
        (fm1, x1, j1, 0.5),
        (fm2, x2, j2, 0.0),
        (fm3, x3, j3, 0.0),
        (fm3, x3, j3, 0.5),
    ):
        mean = joint.ravel() @ cell_features(fm, X)
        box = ExpectationBox(mean, np.full(fm.dim, widths), 100)
        out.append((fm, X, box))
    return out


def test_criterion_1_duality_pinch():
    start = time.time()
    worst_exact, worst_sub, worst_rel = 0.0, 0.0, 0.0
    for fm, X, box in _tiny_fixtures():
        atoms = ConstraintAtoms.from_instances(fm, X)
        oracle = brute_force_max_entropy(ZO, fm, X, box, grid_step=0.02)
        exact = train_zero_one_exact(box, atoms)
        # the subgradient path itself: train_mrc trains 0-1 exactly
        objective = ReducedObjective(ZO, box, atoms)
        w, _ = subgradient_minimize(
            objective.value_and_subgradient, box.dim, SolverConfig(max_iters=80000, c=0.2)
        )
        sub = objective.model(w)
        worst_exact = max(worst_exact, abs(exact.objective_value - oracle))
        worst_sub = max(worst_sub, abs(sub.objective_value - oracle))
        worst_rel = max(
            worst_rel,
            abs(exact.objective_value - sub.objective_value)
            / (1.0 + abs(exact.objective_value)),
        )
    elapsed = time.time() - start
    ok = worst_exact <= 0.08 and worst_sub <= 0.08 and worst_rel <= 1e-3 and elapsed <= 60
    _report(
        "1 duality-pinch",
        ok,
        f"(exact-vs-oracle {worst_exact:.4f}, subgrad-vs-oracle {worst_sub:.4f}, "
        f"exact-vs-subgrad rel {worst_rel:.2e}, {elapsed:.0f}s)",
    )


def test_criterion_2_sandwich_on_known_distribution():
    start = time.time()
    joint = eight_point_joint()
    cfg = SolverConfig(max_iters=1000)
    counts = {}
    for n in (100, 400):
        hits = 0
        for rep in range(50):
            train = joint.sample(n, seed=[2024, n, rep])
            fm = fit_thresholds(train, StumpSpec(20))
            box = estimate_expectations(fm, train, hoeffding_widths(fm, 0.05))
            atoms = constraint_atoms(fm, train)
            model = train_zero_one_exact(box, atoms, cfg, feature_map=fm)
            up = upper_bound(model, box)
            lo = lower_bound(model, box, atoms)
            risk = joint.exact_risk(ZO, predict_probs(model, joint.instances))
            hits += lo <= risk <= up
        counts[n] = hits
    elapsed = time.time() - start
    ok = all(v >= 45 for v in counts.values()) and elapsed <= 300
    _report("2 sandwich-synthetic", ok, f"(hits {counts}, {elapsed:.0f}s)")


def test_criterion_3_interval_objective_is_l1_regularization():
    start = time.time()
    rng = np.random.default_rng(33)
    worst = 0.0
    for _ in range(1000):
        m = int(rng.integers(1, 17))
        mean = rng.random(m)
        widths = rng.random(m)
        n = int(rng.integers(1, 1000))
        w = rng.normal(size=m) * 2.0
        box = ExpectationBox(mean, widths, n)
        interval_form = box.half_width @ np.abs(w) - box.midpoint @ w
        l1_form = -mean @ w + (widths @ np.abs(w)) / math.sqrt(n)
        worst = max(worst, abs(interval_form - l1_form))
    elapsed = time.time() - start
    ok = worst <= 1e-12 and elapsed <= 1.0
    _report("3 l1-identity", ok, f"(worst {worst:.2e}, {elapsed:.2f}s)")


def _logistic_erm(w, fm, data):
    s = pattern_scores(fm.indicator_matrix(data.instances), w)
    diffs = s - s[np.arange(data.n), data.labels - 1][:, None]
    return float(np.mean(np.log(np.exp(diffs).sum(axis=1))))


def _minimax_hinge_erm(w, fm, data):
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


def test_criterion_4_fixed_marginal_correspondences():
    rng = np.random.default_rng(44)
    worst_log = 0.0
    from mrckit.core import Dataset

    data = Dataset(
        instances=rng.normal(size=(15, 2)).round(1),
        labels=rng.integers(1, 3, size=15),
        num_classes=2,
    )
    fm = fit_thresholds(data, StumpSpec(3))
    for _ in range(1000):
        w = rng.normal(size=fm.dim) * 2.0
        mine, _ = logreg_objective(w, constraint_atoms(fm, data), 0.0)
        worst_log = max(worst_log, abs(mine - _logistic_erm(w, fm, data)))

    worst_adv = 0.0
    for k in (2, 3, 4):
        data_k = Dataset(
            instances=rng.normal(size=(12, 2)).round(1),
            labels=rng.integers(1, k + 1, size=12),
            num_classes=k,
        )
        fm_k = fit_thresholds(data_k, StumpSpec(3))
        for _ in range(60):
            w = rng.normal(size=fm_k.dim) * 2.0
            mine, _ = adversarial01_objective(w, constraint_atoms(fm_k, data_k), 0.0)
            worst_adv = max(worst_adv, abs(mine - _minimax_hinge_erm(w, fm_k, data_k)))
    ok = worst_log <= 1e-12 and worst_adv <= 1e-12
    _report(
        "4 correspondences", ok, f"(logistic {worst_log:.2e}, minimax-hinge {worst_adv:.2e})"
    )


def test_criterion_5_prediction_contracts():
    start = time.time()
    rng = np.random.default_rng(55)
    fm = FeatureMap(num_classes=3, thresholds=((1, 0.0), (1, 1.0)))
    patterns = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 1.0], [1.0, 1.0, 1.0]])
    atoms = ConstraintAtoms(patterns=patterns, num_classes=3)
    cases = 0
    worst_norm = 0.0
    worst_inherit = -math.inf
    worst_shift = 0.0
    tol = 1e-6
    for _ in range(100):
        w = rng.normal(size=fm.dim) * 0.6
        scores = atoms.scores(w)
        X = rng.normal(loc=0.5, scale=1.2, size=(100, 1))
        inst_scores = pattern_scores(fm.indicator_matrix(X), w)
        for loss in (ZO, LG, AlphaLoss(2.0)):
            offset = float(loss.offset(scores).min())
            probs = rule_probs(loss, scores, offset)
            cases += probs.shape[0]
            worst_norm = max(worst_norm, np.abs(probs.sum(axis=1) - 1.0).max())
            worst_norm = max(worst_norm, max(0.0, -probs.min()))
            if isinstance(loss, ZeroOneLoss):
                floor = scores + offset + 1.0
                worst_inherit = max(worst_inherit, (floor - probs).max())
            elif isinstance(loss, LogLoss):
                floor = np.exp(scores + offset)
                worst_inherit = max(worst_inherit, (floor - probs).max())
        # shift invariance of the log rule on raw instance scores
        shift = rng.normal()
        a = LG.rule(inst_scores, None)
        b = LG.rule(inst_scores + shift, None)
        worst_shift = max(worst_shift, np.abs(a - b).max())
        cases += X.shape[0]
    # seeded sampling determinism on a fresh batch
    probs = rng.random((10000, 3))
    probs /= probs.sum(axis=1, keepdims=True)
    det = np.array_equal(sample_labels(probs, seed=7), sample_labels(probs, seed=7))
    cases += probs.shape[0]
    elapsed = time.time() - start
    ok = (
        cases >= 10000
        and worst_norm <= 1e-12
        and worst_inherit <= tol
        and worst_shift <= 1e-12
        and det
        and elapsed <= 10
    )
    _report(
        "5 prediction-contracts",
        ok,
        f"({cases} cases, norm {worst_norm:.1e}, inherit {worst_inherit:.1e}, "
        f"shift {worst_shift:.1e}, {elapsed:.1f}s)",
    )


def test_criterion_6_numerical_oracles():
    rng = np.random.default_rng(66)
    # sorted-prefix offsets vs full subset enumeration, exact on dyadic input
    exact_equal = True
    for k in range(2, 7):
        for _ in range(300):
            v = rng.integers(-512, 512, size=k) / 256.0
            best = min(
                (1.0 - sum(v[i] + 1.0 for i in sub)) / size
                for size in range(1, k + 1)
                for sub in itertools.combinations(range(k), size)
            )
            if ZO.offset(v[None])[0] != best:
                exact_equal = False

    worst_alpha = 0.0
    for alpha in (0.5, 2.0, 4.0):
        beta = beta_of_alpha(alpha)
        for k in (2, 3, 4):
            expect = beta * (k ** (-1.0 / beta) - 1.0)
            (got,), _ = max_offset_alpha(np.zeros((1, k)), alpha)
            worst_alpha = max(worst_alpha, abs(got - expect))

    patterns = np.array([[1.0, 0.0], [1.0, 1.0]])
    atoms = ConstraintAtoms(patterns=patterns, num_classes=2)
    p = rng.random((2, 2))
    p /= p.sum()
    mean = np.zeros(4)
    for j in range(2):
        for y in range(2):
            mean[y * 2 : (y + 1) * 2] += p[j, y] * patterns[j]
    box = ExpectationBox(mean, rng.random(4) * 0.4, 25)
    ro = ReducedObjective(LG, box, atoms)
    eps = 1e-6
    worst_grad = 0.0
    for _ in range(10):
        w = rng.normal(size=4)
        w = np.where(np.abs(w) < 0.1, 0.4, w)
        grad = ro.value_and_subgradient(w)[1]
        fd = np.zeros(4)
        for i in range(4):
            e = np.zeros(4)
            e[i] = eps
            fd[i] = (ro.evaluate(w + e)[0] - ro.evaluate(w - e)[0]) / (2 * eps)
        worst_grad = max(worst_grad, np.abs(grad - fd).max() / max(1.0, np.abs(fd).max()))
    ok = exact_equal and worst_alpha <= 1e-9 and worst_grad <= 1e-5
    _report(
        "6 numerical-oracles",
        ok,
        f"(enumeration exact {exact_equal}, alpha closed form {worst_alpha:.1e}, "
        f"log gradient {worst_grad:.1e})",
    )


def test_criterion_7_bound_monotonicity_in_widths():
    rng = np.random.default_rng(77)
    worst_upper_retrain = 0.0
    worst_upper_fixed = 0.0
    worst_lower_fixed = 0.0
    for _ in range(50):
        pats = rng.integers(0, 2, size=(3, 2)).astype(float)
        pats[:, 0] = 1.0
        atoms = ConstraintAtoms(patterns=np.unique(pats, axis=0), num_classes=2)
        p = rng.random((atoms.count, 2))
        p /= p.sum()
        mean = np.zeros(atoms.dim)
        blk = atoms.block_size
        for j in range(atoms.count):
            for y in range(2):
                mean[y * blk : (y + 1) * blk] += p[j, y] * atoms.patterns[j]
        widths = rng.random(atoms.dim) * 0.4
        grown = widths + rng.random(atoms.dim) * 0.5
        box_s = ExpectationBox(mean, widths, 25)
        box_l = ExpectationBox(mean, grown, 25)
        small = train_zero_one_exact(box_s, atoms)
        large = train_zero_one_exact(box_l, atoms)
        worst_upper_retrain = max(
            worst_upper_retrain, small.objective_value - large.objective_value
        )
        worst_upper_fixed = max(
            worst_upper_fixed, upper_bound(small, box_s) - upper_bound(small, box_l)
        )
        worst_lower_fixed = max(
            worst_lower_fixed,
            lower_bound(small, box_l, atoms) - lower_bound(small, box_s, atoms),
        )
    ok = max(worst_upper_retrain, worst_upper_fixed, worst_lower_fixed) <= 1e-8
    _report(
        "7 bound-monotonicity",
        ok,
        f"(upper retrained {worst_upper_retrain:.1e}, upper fixed {worst_upper_fixed:.1e}, "
        f"lower fixed {worst_lower_fixed:.1e})",
    )


def test_criterion_8_end_to_end_experiment(tmp_path):
    start = time.time()
    data_path = tmp_path / "demo.csv"
    save_dataset(two_class_demo_joint().sample(3000, seed=20240501), data_path)
    config = {
        "dataset": str(data_path),
        "train_sizes": [100, 500],
        "repetitions": 10,
        "test_size": 1000,
        "lambda": "0.25",
        "seed": 0,
        "max_iters": 4000,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    out_path = tmp_path / "results.csv"
    code = main(["experiment", "--config", str(cfg_path), "--out", str(out_path)])
    assert code == 0
    rows = list(csv.DictReader(open(out_path)))
    mrc = [r for r in rows if r["method"] == "mrc-zero-one"]
    assert len(mrc) == 20
    in_band = all(
        float(r["lower"]) - 0.02 <= float(r["risk"]) <= float(r["upper"]) + 0.02
        for r in mrc
    )
    med = {
        n: np.median([float(r["upper"]) for r in mrc if r["n"] == n])
        for n in ("100", "500")
    }
    elapsed = time.time() - start
    ok = in_band and med["500"] <= med["100"] + 1e-12 and elapsed <= 180
    _report(
        "8 end-to-end-experiment",
        ok,
        f"(all 20 runs in band {in_band}, median upper {med['100']:.3f}->{med['500']:.3f}, "
        f"{elapsed:.0f}s)",
    )
