"""Training-time risk guarantees: upper bound, lower-bound LP, worst-case LP.

The upper bound is the achieved dual objective.  The lower bound solves a
linear program whose constraints cap the linear scores by the model's own
per-pattern losses; the worst-case program bounds any rule's expected loss
from above over the box.  Both programs restrict attention to the observed
constraint patterns, matching how the models were trained.
"""

from __future__ import annotations

import numpy as np

from .core import BoundReport, ConstraintAtoms, ExpectationBox, MrcModel, label_blocks
from .simplex import OPTIMAL, solve_lp
from .solver import dual_value

__all__ = [
    "upper_bound",
    "model_loss_table",
    "lower_bound",
    "lower_bound_over_distributions",
    "worst_case_risk",
    "generalization_slack",
    "bound_report",
]


def upper_bound(model: MrcModel, box: ExpectationBox) -> float:
    """Achieved dual objective: half_width.|w| - midpoint.w - offset."""
    offset = model.dual_offset("upper_bound")
    return dual_value(model.weights, box.half_width, box.midpoint, offset)


def model_loss_table(model: MrcModel, atoms: ConstraintAtoms) -> np.ndarray:
    """Per-pattern, per-label loss of the model's own rule."""
    offset = model.dual_offset("the bound LPs")
    return model.loss.rule_loss(atoms.scores(model.weights), offset)


def _score_constraint_rows(atoms: ConstraintAtoms):
    """Rows of f_j(y) over split weights plus the offset pair, one per (j, y)."""
    B = label_blocks(atoms.patterns, atoms.num_classes)
    ones = np.ones((B.shape[0], 1))
    return np.hstack([B, -B, ones, -ones])


def lower_bound(
    model: MrcModel, box: ExpectationBox, atoms: ConstraintAtoms
) -> float:
    """Risk lower bound: the largest box-feasible value of the model's own loss.

    Maximizes midpoint.w - half_width.eta + offset subject to the per-pattern
    score caps given by the model's loss table.  Bounded by construction (the
    offset never exceeds the smallest cap).
    """
    eps = model_loss_table(model, atoms)
    A = _score_constraint_rows(atoms)
    b = eps.ravel()
    c = np.concatenate(
        [
            box.half_width - box.midpoint,
            box.half_width + box.midpoint,
            [-1.0, 1.0],
        ]
    )
    res = solve_lp(c, A, b, ["<="] * A.shape[0], [True] * A.shape[1])
    if res.status != OPTIMAL:
        raise RuntimeError(f"lower-bound LP ended with status {res.status}")
    return float(-res.value)


def lower_bound_over_distributions(
    model: MrcModel, box: ExpectationBox, atoms: ConstraintAtoms
) -> float:
    """Same bound from the other side: cheapest box-feasible distribution on atoms.

    Kept as the duality self-check for ``lower_bound``; the two optima must
    agree to solver precision.
    """
    eps = model_loss_table(model, atoms)
    m = atoms.dim
    E = label_blocks(atoms.patterns, atoms.num_classes).T
    A = np.vstack([E, E, np.ones((1, E.shape[1]))])
    b = np.concatenate([box.upper, box.lower, [1.0]])
    senses = ["<="] * m + [">="] * m + ["="]
    res = solve_lp(eps.ravel(), A, b, senses, [True] * E.shape[1])
    if res.status != OPTIMAL:
        raise RuntimeError(f"distribution-form LP ended with status {res.status}")
    return float(res.value)


def worst_case_risk(
    loss_table, box: ExpectationBox, atoms: ConstraintAtoms
) -> float:
    """Largest box-feasible expected loss of an arbitrary rule.

    ``loss_table`` holds the rule's loss at every (pattern, label).  Solves
    the program whose constraints force the score plus offset below the
    negated losses; its optimum dominates the rule's expected loss under every
    distribution the box admits.
    """
    eps = np.atleast_2d(np.asarray(loss_table, dtype=np.float64))
    if eps.shape != (atoms.count, atoms.num_classes):
        raise ValueError(
            f"loss table has shape {eps.shape}, need ({atoms.count}, {atoms.num_classes})"
        )
    A = _score_constraint_rows(atoms)
    b = -eps.ravel()
    c = np.concatenate([-box.lower, box.upper, [-1.0, 1.0]])
    res = solve_lp(c, A, b, ["<="] * A.shape[0], [True] * A.shape[1])
    if res.status != OPTIMAL:
        raise RuntimeError(f"worst-case LP ended with status {res.status}")
    return float(res.value)


def generalization_slack(widths, weights, n: int) -> dict:
    """Additive finite-sample terms reported with the upper bound.

    ``interval_slack`` caps the interval-trained model's regret against the
    infinite-sample entropy; ``point_slack`` the point-trained one's against
    its own objective.  Both shrink as O(1/sqrt(n)); both vanish for zero
    widths or zero weights.
    """
    widths = np.asarray(widths, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    lead = float(np.max(np.abs(widths), initial=0.0))
    l1 = float(np.abs(weights).sum())
    base = lead * l1 / float(np.sqrt(n))
    return {"interval_slack": 2.0 * base, "point_slack": base}


def bound_report(
    model: MrcModel,
    box: ExpectationBox,
    atoms: ConstraintAtoms,
    delta: float | None = None,
) -> BoundReport:
    """Upper/lower bounds plus slack terms for a trained model."""
    return BoundReport(
        upper=upper_bound(model, box),
        lower=lower_bound(model, box, atoms),
        delta=delta,
        slack_terms=generalization_slack(box.widths, model.weights, box.n),
    )
