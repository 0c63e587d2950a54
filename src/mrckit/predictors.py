"""Prediction rules read off the trained dual parameters, and their risk.

Each loss turns the linear scores into conditional probabilities with its own
``rule``; all rules inherit dual feasibility, so on every training pattern
the emitted probabilities dominate the quantities the dual constraints bound.
``empirical_risk`` scores any such rule on a labelled dataset.
"""

from __future__ import annotations

import numpy as np

from .core import Dataset, Loss, MrcModel, pattern_scores

__all__ = [
    "rule_probs",
    "predict_probs",
    "predict_labels",
    "sample_labels",
    "empirical_risk",
]


def rule_probs(loss: Loss, scores, offset) -> np.ndarray:
    """Conditional probability rows for raw (n, K) scores under any loss."""
    return loss.rule(scores, offset)


def predict_probs(model: MrcModel, X) -> np.ndarray:
    """The model's rule at instances X, at its offset (None: each row's own).

    Rows sharing an indicator pattern share their scores and so their rule
    row: ``pattern_scores`` and the rule run once per occupied cell of X
    (``FeatureMap.cells``), on the cell's pattern, and each row takes its
    cell's rule row.  Scores and rules work row by row, so a row's
    probabilities do not depend on the rest of the batch, and at a training
    pattern they are the rule the model's bounds certify.
    """
    fm = model.features()
    patterns, cell = fm.cells(X)
    probs = rule_probs(model.loss, pattern_scores(patterns, model.weights), model.offset)
    return probs.take(cell, axis=0)


def predict_labels(model: MrcModel, X) -> np.ndarray:
    """Argmax labels (1-based) of the predicted probabilities."""
    return np.argmax(predict_probs(model, X), axis=1) + 1


def sample_labels(probs, seed) -> np.ndarray:
    """Draw one 1-based label per probability row, reproducibly for a seed."""
    probs = np.atleast_2d(np.asarray(probs, dtype=np.float64))
    rng = np.random.default_rng(seed)
    u = rng.random(probs.shape[0])
    cum = np.cumsum(probs, axis=1)
    cum[:, -1] = 1.0  # guard round-off at the top end
    return (u[:, None] > cum).sum(axis=1) + 1


def empirical_risk(loss: Loss, rule_probs, data: Dataset) -> float:
    """Mean loss of a rule (per-instance probability rows) on a dataset.

    Infinite log loss propagates as +inf rather than raising.
    """
    H = np.atleast_2d(np.asarray(rule_probs, dtype=np.float64))
    if H.shape != (data.n, data.num_classes):
        raise ValueError(f"rule has shape {H.shape}, need ({data.n}, {data.num_classes})")
    return float(np.mean(loss.loss_table(H)[np.arange(data.n), data.labels - 1]))
