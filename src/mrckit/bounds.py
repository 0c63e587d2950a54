"""Training-time risk guarantees: the upper bound and the two bound LPs.

The upper bound is the achieved dual objective.  Both LPs are the box's
dual program of ``solver.solve_box_lp`` on the label-block rows (one per
pattern and label) with a loss table eps on the right:

    L(t) = min half_width.|w| - midpoint.w - o   s.t.  f_j(y).w + o <= t_jy.

By LP duality L(t) = -min E_p[t] over the distributions p on the observed
patterns whose feature expectations lie in the box, so the lower bound is
-L(eps) for the model's own losses and the worst-case risk of any rule is
L(-eps) for that rule's losses.  Both restrict attention to the observed
constraint patterns, matching how the models were trained.
"""

from __future__ import annotations

import numpy as np

from .core import BoundReport, ConstraintAtoms, ExpectationBox, MrcModel, label_blocks
from .simplex import solve_lp
from .solver import dual_feasibility_residual, dual_value, solve_box_lp

__all__ = [
    "upper_bound",
    "model_loss_table",
    "lower_bound",
    "worst_case_risk",
    "generalization_slack",
    "bound_report",
]

# largest dual feasibility residual of a model whose bounds are reported
RESIDUAL_TOL = 1e-9


def upper_bound(model: MrcModel, box: ExpectationBox) -> float:
    """Achieved dual objective: half_width.|w| - midpoint.w - offset."""
    offset = model.dual_offset("upper_bound")
    return dual_value(model.weights, box.half_width, box.midpoint, offset)


def model_loss_table(model: MrcModel, atoms: ConstraintAtoms) -> np.ndarray:
    """Per-pattern, per-label loss of the model's own rule."""
    offset = model.dual_offset("the bound LPs")
    return model.loss.rule_loss(atoms.scores(model.weights), offset)


def lower_bound(
    model: MrcModel, box: ExpectationBox, atoms: ConstraintAtoms
) -> float:
    """Risk lower bound: the smallest expected loss of the model's own rule
    over the distributions on the patterns that the box admits, -L(eps)."""
    eps = model_loss_table(model, atoms).ravel()
    rows = label_blocks(atoms.patterns, atoms.num_classes)
    return 0.0 - solve_box_lp(box, rows, 1.0, eps, solve_lp)[1]  # +0.0, not -0.0


def worst_case_risk(
    loss_table, box: ExpectationBox, atoms: ConstraintAtoms
) -> float:
    """Largest expected loss of an arbitrary rule over the distributions on
    the patterns that the box admits, L(-eps).

    ``loss_table`` holds the rule's loss eps at every (pattern, label).
    """
    eps = np.atleast_2d(np.asarray(loss_table, dtype=np.float64))
    if eps.shape != (atoms.count, atoms.num_classes):
        raise ValueError(
            f"loss table has shape {eps.shape}, need ({atoms.count}, {atoms.num_classes})"
        )
    rows = label_blocks(atoms.patterns, atoms.num_classes)
    return solve_box_lp(box, rows, 1.0, -eps.ravel(), solve_lp)[1]


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


def bound_report(model: MrcModel, box: ExpectationBox, atoms: ConstraintAtoms) -> BoundReport:
    """Upper/lower bounds plus slack terms for a trained model.

    The dual value bounds the risk only if the model's offset is dual
    feasible on the patterns, so a model whose dual feasibility residual
    exceeds ``RESIDUAL_TOL`` is refused with a ``ValueError``.
    """
    upper = upper_bound(model, box)
    residual = dual_feasibility_residual(model, atoms)
    if residual > RESIDUAL_TOL:
        raise ValueError(
            f"the model's offset is infeasible on the data (dual feasibility "
            f"residual {residual!r} > {RESIDUAL_TOL}), so its dual value is no upper bound"
        )
    return BoundReport(
        upper=upper,
        lower=lower_bound(model, box, atoms),
        slack_terms=generalization_slack(box.widths, model.weights, box.n),
    )
