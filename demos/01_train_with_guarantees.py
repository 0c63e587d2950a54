"""Train minimax risk classifiers and read off their risk bounds.

Walks the full path once: sample data from a known distribution, fit
threshold features with decision stumps, build the expectation box, train
under 0-1, log, and alpha losses, and compare the training-time bounds with
the true risks (computable exactly here because the sampling distribution is
known).
"""

import numpy as np

from mrckit.bounds import bound_report
from mrckit.core import AlphaLoss, LogLoss, ZeroOneLoss
from mrckit.datasets import two_class_demo_joint
from mrckit.features import (
    StumpSpec,
    constraint_atoms,
    estimate_expectations,
    fit_thresholds,
    hoeffding_widths,
)
from mrckit.predictors import predict_probs
from mrckit.solver import SolverConfig, train_mrc

joint = two_class_demo_joint()
train = joint.sample(400, seed=7)

fm = fit_thresholds(train, StumpSpec(max_leaves=20))
print(f"fitted {fm.num_thresholds} thresholds -> {fm.dim} features\n")

atoms = constraint_atoms(fm, train)
cfg = SolverConfig(max_iters=6000)

for label, widths in (
    ("default widths 0.25", np.full(fm.dim, 0.25)),
    ("95%-confidence widths", hoeffding_widths(fm, delta=0.05)),
):
    box = estimate_expectations(fm, train, widths)
    print(f"=== {label} ===")
    for loss in (ZeroOneLoss(), LogLoss(), AlphaLoss(2.0)):
        model = train_mrc(loss, box, atoms, cfg, feature_map=fm)
        report = bound_report(model, box, atoms)
        risk = joint.exact_risk(loss, predict_probs(model, joint.instances))
        inside = report.lower <= risk <= report.upper
        print(
            f"  {loss.name:9s} lower {report.lower:.4f} <= true risk {risk:.4f}"
            f" <= upper {report.upper:.4f}   sandwich={'yes' if inside else 'NO'}"
        )
    print()
