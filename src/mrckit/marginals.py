"""Learners for uncertainty sets that also pin the instances' marginal.

With the instances' marginal fixed at the empirical one, the scalar dual
offset splits into one closed-form offset per instance, and the training
objective becomes an L1-regularized empirical risk:

    (1/n) sum_i [ -phi(x_i, y_i).w - offset(w, x_i) ] + widths.|w|/sqrt(n).

For 0-1 loss this is the minimax-hinge (adversarial zero-one) objective; for
log loss it is exactly L1-regularized multinomial logistic regression.  Both
identities are asserted in the test suite.
"""

from __future__ import annotations

import numpy as np

from .core import LOG, ZERO_ONE, ConstraintAtoms, Dataset, FeatureMap, Loss, MrcModel
from .features import constraint_atoms, feature_mean, widths_vector
from .solver import SolverConfig, subgradient_minimize

__all__ = [
    "fixed_marginal_objective",
    "adversarial01_objective",
    "logreg_objective",
    "train_adversarial01",
    "train_logreg",
    "predict_fixed_marginal",
]


def fixed_marginal_objective(loss: Loss, weights, atoms: ConstraintAtoms, widths=0.0):
    """Value and subgradient of the fixed-marginal objective of ``loss``.

    -mean.w - sum_j freq_j offset_j(w) + widths.|w|/sqrt(n) over the training
    table, with each pattern's offset and label weights from the loss.
    """
    w = np.asarray(weights, dtype=np.float64)
    offs, label_weights = loss.active_label_weights(atoms.scores(w))
    mean = feature_mean(atoms)
    freq = atoms.counts.sum(axis=1) / atoms.n
    value = -mean @ w - freq @ offs
    grad = -mean + ((label_weights * freq[:, None]).T @ atoms.patterns).ravel()
    reg = widths_vector(widths, atoms.dim) / np.sqrt(atoms.n)
    return value + reg @ np.abs(w), grad + reg * np.sign(w)


def adversarial01_objective(weights, atoms: ConstraintAtoms, widths=0.0):
    """Value and subgradient of the fixed-marginal 0-1 objective at ``weights``."""
    return fixed_marginal_objective(ZERO_ONE, weights, atoms, widths)


def logreg_objective(weights, atoms: ConstraintAtoms, widths=0.0):
    """Value and gradient of the fixed-marginal log objective at ``weights``.

    Identical to the mean negative log-likelihood of the softmax rule plus
    the L1 term.
    """
    return fixed_marginal_objective(LOG, weights, atoms, widths)


def _train_fixed_marginal(loss, objective, fm, data, widths, cfg):
    atoms = constraint_atoms(fm, data)
    best_w, best_value, converged = subgradient_minimize(
        lambda w: objective(w, atoms, widths), fm.dim, cfg
    )
    return MrcModel(
        loss=loss,
        weights=best_w,
        offset=None,
        objective_value=float(best_value),
        num_classes=fm.num_classes,
        feature_map=fm,
        variant="instance_marginal",
        converged=converged,
    )


def train_adversarial01(
    data: Dataset, fm: FeatureMap, widths=0.0, cfg: SolverConfig = SolverConfig()
) -> MrcModel:
    """Adversarial 0-1 classification (minimax-hinge empirical risk + L1)."""
    return _train_fixed_marginal(ZERO_ONE, adversarial01_objective, fm, data, widths, cfg)


def train_logreg(
    data: Dataset, fm: FeatureMap, widths=0.0, cfg: SolverConfig = SolverConfig()
) -> MrcModel:
    """L1-regularized multinomial logistic regression."""
    return _train_fixed_marginal(LOG, logreg_objective, fm, data, widths, cfg)


def predict_fixed_marginal(model: MrcModel, X) -> np.ndarray:
    """Conditional probabilities of a fixed-marginal model at instances X."""
    if model.variant != "instance_marginal":
        raise TypeError("predict_fixed_marginal needs an instance-marginal model")
    return model.loss.instance_rule(model.score_matrix(X))
