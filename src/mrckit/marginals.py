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

from .core import LOG, ZERO_ONE, Dataset, FeatureMap, MrcModel
from .features import feature_mean, widths_vector
from .solver import SolverConfig, subgradient_minimize

__all__ = [
    "adversarial01_objective",
    "logreg_objective",
    "train_adversarial01",
    "train_logreg",
    "predict_fixed_marginal",
]


def _grouped(fm: FeatureMap, data: Dataset):
    """Distinct indicator patterns with their empirical frequencies."""
    ind = fm.indicator_matrix(data.instances)
    patterns, inverse = np.unique(ind, axis=0, return_inverse=True)
    freq = np.bincount(inverse, minlength=patterns.shape[0]) / data.n
    return patterns, freq


def _regularized(parts_value, parts_grad, widths, n, w):
    reg = widths / np.sqrt(n)
    return parts_value + reg @ np.abs(w), parts_grad + reg * np.sign(w)


def adversarial01_objective(weights, fm: FeatureMap, data: Dataset, widths=0.0):
    """Value and subgradient of the fixed-marginal 0-1 objective at ``weights``."""
    w = np.asarray(weights, dtype=np.float64)
    mean = feature_mean(fm, data)
    patterns, freq = _grouped(fm, data)
    scores = patterns @ w.reshape(fm.num_classes, fm.block_size).T
    offs, lab_w = ZERO_ONE.active_label_weights(scores)
    value = -mean @ w - freq @ offs
    grad_blocks = (lab_w * freq[:, None]).T @ patterns
    grad = -mean + grad_blocks.ravel()
    return _regularized(value, grad, widths_vector(widths, fm.dim), data.n, w)


def logreg_objective(weights, fm: FeatureMap, data: Dataset, widths=0.0):
    """Value and gradient of the fixed-marginal log objective at ``weights``.

    Identical to the mean negative log-likelihood of the softmax rule plus
    the L1 term.
    """
    w = np.asarray(weights, dtype=np.float64)
    scores = fm.score_matrix(data.instances, w)
    vmax = scores.max(axis=1, keepdims=True)
    e = np.exp(scores - vmax)
    lse = (vmax[:, 0] + np.log(e.sum(axis=1)))
    picked = scores[np.arange(data.n), data.labels - 1]
    value = float(np.mean(lse - picked))
    probs = e / e.sum(axis=1, keepdims=True)
    ind = fm.indicator_matrix(data.instances)
    grad_blocks = probs.T @ ind / data.n
    mean = feature_mean(fm, data)
    grad = grad_blocks.ravel() - mean
    return _regularized(value, grad, widths_vector(widths, fm.dim), data.n, w)


def _train_fixed_marginal(loss, objective, fm, data, cfg):
    best_w, best_value, converged = subgradient_minimize(objective, fm.dim, cfg)
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
    return _train_fixed_marginal(
        ZERO_ONE,
        lambda w: adversarial01_objective(w, fm, data, widths),
        fm,
        data,
        cfg,
    )


def train_logreg(
    data: Dataset, fm: FeatureMap, widths=0.0, cfg: SolverConfig = SolverConfig()
) -> MrcModel:
    """L1-regularized multinomial logistic regression."""
    return _train_fixed_marginal(
        LOG,
        lambda w: logreg_objective(w, fm, data, widths),
        fm,
        data,
        cfg,
    )


def predict_fixed_marginal(model: MrcModel, X) -> np.ndarray:
    """Conditional probabilities of a fixed-marginal model at instances X."""
    if model.variant != "instance_marginal":
        raise TypeError("predict_fixed_marginal needs an instance-marginal model")
    return model.loss.instance_rule(model.score_matrix(X))
