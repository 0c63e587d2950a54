"""Interval boxes are L1 regularization; fixed marginals recover classics.

Three identities, each checked numerically at random parameter vectors:
the interval-box dual objective equals the point-estimate objective plus an
L1 penalty weighted by the interval widths; the fixed-marginal log learner's
objective is the logistic-regression empirical risk; and the fixed-marginal
0-1 learner's objective is the minimax-hinge (adversarial zero-one)
empirical risk.  The last block reports the finite-sample slack terms on
synthetic data where the population feature expectation is known.
"""

import itertools
import math

import numpy as np

from mrckit.bounds import generalization_slack, upper_bound
from mrckit.core import ExpectationBox, ZeroOneLoss, pattern_scores
from mrckit.datasets import two_class_demo_joint
from mrckit.features import StumpSpec, constraint_atoms, estimate_expectations, fit_thresholds
from mrckit.marginals import adversarial01_objective, logreg_objective
from mrckit.solver import SolverConfig, train_zero_one_exact

rng = np.random.default_rng(0)

print("1) interval-box objective == point objective + width-weighted L1")
worst = 0.0
for _ in range(300):
    m = int(rng.integers(1, 13))
    mean, widths = rng.random(m), rng.random(m)
    n = int(rng.integers(1, 500))
    w = rng.normal(size=m) * 2
    box = ExpectationBox(mean, widths, n)
    lhs = box.half_width @ np.abs(w) - box.midpoint @ w
    rhs = -mean @ w + (widths @ np.abs(w)) / math.sqrt(n)
    worst = max(worst, abs(lhs - rhs))
print(f"   largest deviation over 300 draws: {worst:.2e}\n")

joint = two_class_demo_joint()
data = joint.sample(120, seed=3)
fm = fit_thresholds(data, StumpSpec(4))

print("2) fixed-marginal log objective == logistic regression risk")
worst = 0.0
for _ in range(200):
    w = rng.normal(size=fm.dim)
    mine, _ = logreg_objective(w, constraint_atoms(fm, data), 0.0)
    s = pattern_scores(fm.indicator_matrix(data.instances), w)
    nll = np.mean(
        np.log(np.exp(s).sum(axis=1)) - s[np.arange(data.n), data.labels - 1]
    )
    worst = max(worst, abs(mine - nll))
print(f"   largest deviation over 200 draws: {worst:.2e}\n")

print("3) fixed-marginal 0-1 objective == minimax-hinge risk (subset enumeration)")
worst = 0.0
for _ in range(50):
    w = rng.normal(size=fm.dim)
    mine, _ = adversarial01_objective(w, constraint_atoms(fm, data), 0.0)
    s = pattern_scores(fm.indicator_matrix(data.instances), w)
    total = 0.0
    for i in range(data.n):
        best = -math.inf
        for size in (1, 2):
            for sub in itertools.combinations(range(2), size):
                val = (
                    sum(s[i, c] - s[i, data.labels[i] - 1] for c in sub) + size - 1
                ) / size
                best = max(best, val)
        total += best
    worst = max(worst, abs(mine - total / data.n))
print(f"   largest deviation over 50 draws: {worst:.2e}\n")

print("4) finite-sample slack terms (population expectations known here)")
widths = np.full(fm.dim, 0.25)
box = estimate_expectations(fm, data, widths)
atoms = constraint_atoms(fm, data)
model = train_zero_one_exact(box, atoms, SolverConfig(), feature_map=fm)
terms = generalization_slack(widths, model.weights, data.n)
ideal_box = ExpectationBox(joint.exact_feature_mean(fm), np.zeros(fm.dim), data.n)
ideal = train_zero_one_exact(ideal_box, atoms)
print(f"   upper bound:              {upper_bound(model, box):.4f}")
print(f"   ideal (infinite-n) value: {ideal.objective_value:.4f}")
print(f"   interval slack term:      {terms['interval_slack']:.4f}")
print(f"   point slack term:         {terms['point_slack']:.4f}")
print(
    "   bound vs ideal + slack:   "
    f"{upper_bound(model, box):.4f} <= {ideal.objective_value + terms['interval_slack']:.4f}"
    " (holds when the box captured the truth)"
)
