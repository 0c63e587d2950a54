"""Learners for uncertainty sets that also pin the instances' marginal.

With the instances' marginal fixed at the empirical one, the scalar dual
offset splits into one closed-form offset per instance.  The reduced dual
keeps its form, with the frequency-weighted mean of the per-pattern offsets
in place of the smallest, the empirical mean in place of the box midpoint and
widths/sqrt(n) as the half-width, so the training objective is an
L1-regularized empirical risk:

    (1/n) sum_i [ -phi(x_i, y_i).w - offset(w, x_i) ] + widths.|w|/sqrt(n).

The regularizer widths/sqrt(n) is computed once per training table and
widths value, not once per objective call: a fit validates its widths once.

For 0-1 loss this is the minimax-hinge (adversarial zero-one) objective; for
log loss it is exactly L1-regularized multinomial logistic regression.  Both
identities are asserted in the test suite.
"""

from __future__ import annotations

import numpy as np

from .core import LOG, ZERO_ONE, ConstraintAtoms, Dataset, FeatureMap, Loss, MrcModel
from .features import check_atoms, constraint_atoms, feature_mean, widths_vector
from .predictors import predict_probs
from .solver import ReducedDual, SolverConfig, subgradient_minimize

__all__ = [
    "adversarial01_objective",
    "logreg_objective",
    "train_adversarial01",
    "train_logreg",
    "predict_fixed_marginal",
]


def _dual(loss: Loss, atoms: ConstraintAtoms, widths) -> ReducedDual:
    """The fixed-marginal reduced dual of ``loss`` on the training table.

    Its half-width widths/sqrt(n) is computed once per table and widths
    value and kept, read-only, in ``atoms.regularizers``, so a fit, whose
    every subgradient step calls the public objective, validates its widths
    once.  The key is the widths as float64, shape and bytes: a value of
    another shape is never served from the memo, and only values that pass
    ``widths_vector`` are stored, so a bad value raises on every call.
    """
    w = np.asarray(widths, dtype=np.float64)
    key = (w.shape, w.tobytes())
    reg = atoms.regularizers.get(key)
    if reg is None:
        reg = widths_vector(w, atoms.dim) / np.sqrt(atoms.n)
        reg.setflags(write=False)
        atoms.regularizers[key] = reg
    return ReducedDual(loss, atoms, reg, feature_mean(atoms), atoms.frequencies)


def adversarial01_objective(weights, atoms: ConstraintAtoms, widths=0.0):
    """Value and subgradient of the fixed-marginal 0-1 objective at ``weights``."""
    return _dual(ZERO_ONE, atoms, widths).evaluate(weights)[:2]


def logreg_objective(weights, atoms: ConstraintAtoms, widths=0.0):
    """Value and gradient of the fixed-marginal log objective at ``weights``.

    Identical to the mean negative log-likelihood of the softmax rule plus
    the L1 term.
    """
    return _dual(LOG, atoms, widths).evaluate(weights)[:2]


def _train_fixed_marginal(loss, objective, fm, data, widths, cfg, atoms):
    atoms = constraint_atoms(fm, data) if atoms is None else check_atoms(fm, data, atoms)
    best_w, converged = subgradient_minimize(
        lambda w: objective(w, atoms, widths), fm.dim, cfg
    )
    return _dual(loss, atoms, widths).model(best_w, fm, converged)


def train_adversarial01(
    data: Dataset, fm: FeatureMap, widths=0.0, cfg: SolverConfig = SolverConfig(), atoms=None
) -> MrcModel:
    """Adversarial 0-1 classification (minimax-hinge empirical risk + L1).

    ``atoms`` is the table of ``data`` under ``fm`` when the caller has it
    (``constraint_atoms(fm, data)``), else it is built here.
    """
    return _train_fixed_marginal(ZERO_ONE, adversarial01_objective, fm, data, widths, cfg, atoms)


def train_logreg(
    data: Dataset, fm: FeatureMap, widths=0.0, cfg: SolverConfig = SolverConfig(), atoms=None
) -> MrcModel:
    """L1-regularized multinomial logistic regression; ``atoms`` as in
    ``train_adversarial01``."""
    return _train_fixed_marginal(LOG, logreg_objective, fm, data, widths, cfg, atoms)


def predict_fixed_marginal(model: MrcModel, X) -> np.ndarray:
    """Conditional probabilities of a fixed-marginal model at instances X:
    ``predict_probs`` once the model is checked to carry no offset."""
    if model.offset is not None:
        raise TypeError("predict_fixed_marginal needs an instance-marginal model")
    return predict_probs(model, X)
