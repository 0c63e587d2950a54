"""Certify the dual solvers against brute force on a desk-sized instance.

On three instances and two labels the space of joint distributions can be
enumerated on a lattice.  The maximum entropy found that way, the raw
minimax value over gridded rules and the exact LP dual (the path
``train_mrc`` takes for 0-1 loss) have to land on the same number, up to the
grid slack; for log loss, so do the oracle and the subgradient dual.
"""

import numpy as np

from mrckit.core import ConstraintAtoms, ExpectationBox, FeatureMap, LogLoss, ZeroOneLoss
from mrckit.oracle import (
    brute_force_max_entropy,
    cell_features,
    exhaustive_minimax,
)
from mrckit.solver import SolverConfig, train_mrc, train_zero_one_exact

fm = FeatureMap(num_classes=2, thresholds=((1, 0.5), (1, 1.5)))
instances = np.array([[0.0], [1.0], [2.0]])
true_joint = np.array([[0.25, 0.05], [0.10, 0.20], [0.05, 0.35]])
mean = true_joint.ravel() @ cell_features(fm, instances)
atoms = ConstraintAtoms.from_instances(fm, instances)

for widths in (0.0, 0.5):
    box = ExpectationBox(mean, np.full(6, widths), 100)
    oracle = brute_force_max_entropy(ZeroOneLoss(), fm, instances, box, grid_step=0.02)
    minimax = exhaustive_minimax(ZeroOneLoss(), fm, instances, box, 0.05, 0.05)
    exact = train_zero_one_exact(box, atoms)
    print(f"widths={widths}")
    print(f"  brute-force max entropy (0-1): {oracle:.4f}  (grid slack <= 0.08)")
    print(f"  raw minimax over gridded rules: {minimax:.4f}")
    print(f"  exact LP dual:                  {exact.objective_value:.6f}")
    log_oracle = brute_force_max_entropy(LogLoss(), fm, instances, box, grid_step=0.02)
    log_sub = train_mrc(LogLoss(), box, atoms, SolverConfig(max_iters=60000, c=0.2))
    print(f"  log loss: oracle {log_oracle:.4f} vs subgradient dual {log_sub.objective_value:.4f}")
    print()
