"""Learning minimax risk classifiers from the reduced dual objective.

The full dual over (weights, eta, offsets) collapses to an unconstrained
convex problem in the weights alone: eta is optimal at |weights| because the
uncertainty set has non-negative half-widths, and each pattern's offset is
optimal at its largest feasible value

    offset_j(w) = max { o : per-loss constraint holds at pattern j }.

These maxima have closed forms for 0-1 and log losses and a monotone
bisection for alpha losses.  Training minimizes

    F(w) = half_width . |w| - midpoint . w - q . offsets(w),

with q one-hot at the smallest offset for the box alone, or the pattern
frequencies when the instances' marginal is pinned too, by subgradient
descent (all losses) or, for the box with 0-1 loss, exactly via the
subset-constraint LP.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    MAX_CLASSES_EXACT_LP,
    ZERO_ONE,
    ConstraintAtoms,
    ExpectationBox,
    Loss,
    MrcModel,
    beta_of_alpha,
    label_blocks,
)
from .simplex import OPTIMAL, solve_lp

__all__ = [
    "SolverConfig",
    "dual_value",
    "ReducedDual",
    "ReducedObjective",
    "max_offset_zero_one",
    "max_offset_log",
    "max_offset_alpha",
    "subgradient_minimize",
    "train_mrc",
    "solve_box_lp",
    "train_zero_one_exact",
    "dual_feasibility_residual",
]


CONVERGENCE_TOL = 1e-6  # relative best-value gain over the trailing window
_ONE = np.broadcast_to(1.0, 1)  # the nonzero entry of a one-hot q (read-only)


@dataclass(frozen=True)
class SolverConfig:
    """Iteration budget and step scale c of the c/sqrt(t) subgradient steps."""

    max_iters: int = 20000
    c: float = 0.3

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not (math.isfinite(self.c) and self.c > 0.0):
            raise ValueError(f"step scale c must be finite and > 0, got {self.c!r}")


def max_offset_zero_one(values, return_support=False):
    """Largest offset o with sum_y (v_y + o + 1)_+ <= 1, rows of ``values``.

    Equals min over nonempty label subsets C of (1 - sum_C (v_y + 1)) / |C|;
    the minimizing C of size k collects the k largest scores, so a sorted
    prefix scan suffices.  With ``return_support`` also returns, per row, the
    sorted label order and the minimizing prefix size (deterministic
    tie-breaks: stable sort, smallest k).
    """
    values = np.asarray(values, dtype=np.float64)
    v = values if values.ndim > 1 else values[None]
    rows = np.arange(v.shape[0])
    order = np.argsort(-v, axis=1, kind="stable")
    sv = v[rows[:, None], order]
    k = np.arange(1, v.shape[1] + 1, dtype=np.float64)
    cand = (1.0 - np.cumsum(sv, axis=1) - k) / k
    kstar = np.argmin(cand, axis=1)
    offsets = cand[rows, kstar]
    if values.ndim == 1:
        if return_support:
            return float(offsets[0]), order[0], int(kstar[0]) + 1
        return float(offsets[0])
    if return_support:
        return offsets, order, kstar + 1
    return offsets


def max_offset_log(values):
    """Largest offset with sum_y exp(v_y + o) <= 1, i.e. -logsumexp(values)."""
    v = np.atleast_2d(np.asarray(values, dtype=np.float64))
    vmax = v.max(axis=1)
    out = -(vmax + np.log(np.exp(v - vmax[:, None]).sum(axis=1)))
    return out if np.asarray(values).ndim > 1 else float(out[0])


def _alpha_constraint(values, offsets, beta):
    """sum_y ((v_y + o)/beta + 1)_+^beta per row; +inf marks infeasibility
    for beta < 0 (a clamped base makes the constraint unattainable)."""
    t = (values + offsets[:, None]) / beta + 1.0
    if beta > 0:
        return (np.clip(t, 0.0, None) ** beta).sum(axis=1)
    out = np.where((t > 0.0).all(axis=1), 0.0, np.inf)
    safe = np.clip(t, 1e-300, None)
    finite = np.isfinite(out)
    out[finite] = (safe[finite] ** beta).sum(axis=1)
    return out


def max_offset_alpha(values, alpha, tol=1e-10):
    """Largest offset keeping the alpha-loss dual constraint feasible, by bisection.

    The constraint value is nondecreasing in the offset for both beta > 1 and
    beta < 0, which the bracket check verifies before bisecting.  Returns the
    feasible (lower) end of the final bracket.
    """
    beta = beta_of_alpha(alpha)
    v = np.atleast_2d(np.asarray(values, dtype=np.float64))
    k = v.shape[1]
    vmax = v.max(axis=1)
    if beta > 0:
        lo = -beta - vmax
        hi = -vmax
    else:
        lo = -vmax - abs(beta) * (k ** (1.0 / abs(beta)) - 1.0) - 1.0
        hi = -v.min(axis=1)
    width = hi - lo
    for _ in range(200):  # monotonicity makes the initial bracket valid; belt and braces
        bad_lo = _alpha_constraint(v, lo, beta) > 1.0
        bad_hi = _alpha_constraint(v, hi, beta) < 1.0
        if not (bad_lo.any() or bad_hi.any()):
            break
        lo = np.where(bad_lo, lo - width, lo)
        hi = np.where(bad_hi, hi + width, hi)
        width = hi - lo
    else:
        raise RuntimeError("alpha offset bracket failed to enclose a root")
    while (hi - lo).max() > tol:
        mid = 0.5 * (lo + hi)
        feasible = _alpha_constraint(v, mid, beta) <= 1.0
        lo = np.where(feasible, mid, lo)
        hi = np.where(feasible, hi, mid)
    out = lo
    return out if np.asarray(values).ndim > 1 else float(out[0])


def dual_value(weights, half_width, midpoint, offset) -> float:
    """The reduced dual at ``weights`` given its offset term."""
    return float(half_width @ np.abs(weights) - midpoint @ weights - offset)


@dataclass(frozen=True)
class ReducedDual:
    """The reduced dual F(w) = half_width.|w| - midpoint.w - q.offsets(w).

    ``marginal`` is q when the instances' marginal is pinned (the pattern
    frequencies); None means the box alone: q one-hot at the smallest offset.
    """

    loss: Loss
    atoms: ConstraintAtoms
    half_width: np.ndarray
    midpoint: np.ndarray
    marginal: np.ndarray | None = None

    def __post_init__(self):
        if len(self.midpoint) != self.atoms.dim:
            raise ValueError(f"dual dimension {len(self.midpoint)} != atoms {self.atoms.dim}")

    def evaluate(self, weights):
        """Value, one subgradient and the per-pattern offsets at ``weights``."""
        w = np.asarray(weights, dtype=np.float64)
        offsets, label_weights = self.loss.active_label_weights(self.atoms.scores(w))
        if self.marginal is None:  # q one-hot: sum over its one nonzero row only
            j = int(np.argmin(offsets))
            rows, q = slice(j, j + 1), _ONE
        else:
            rows, q = slice(None), self.marginal
        # d(-q.offsets)/dw: each pattern scattered into each label block with
        # its label weights, scaled by its q
        grad_offset = ((label_weights[rows].T * q) @ self.atoms.patterns[rows]).ravel()
        value = dual_value(w, self.half_width, self.midpoint, q @ offsets[rows])
        return value, self.half_width * np.sign(w) - self.midpoint + grad_offset, offsets

    def model(self, weights, feature_map=None, converged=True) -> MrcModel:
        """The trained model at ``weights``: the box's carries the smallest
        offset; a pinned marginal's recomputes each instance's at prediction."""
        w = np.asarray(weights, dtype=np.float64)
        value, _, offsets = self.evaluate(w)
        box = self.marginal is None
        return MrcModel(
            loss=self.loss,
            weights=w,
            offset=float(offsets.min()) if box else None,
            objective_value=value,
            num_classes=self.atoms.num_classes,
            feature_map=feature_map,
            variant="expectation" if box else "instance_marginal",
            converged=bool(converged),
        )


class ReducedObjective(ReducedDual):
    """The reduced dual of a feature-expectation box and one of its subgradients."""

    def __init__(self, loss: Loss, box: ExpectationBox, atoms: ConstraintAtoms):
        super().__init__(loss, atoms, box.half_width, box.midpoint)

    def value(self, weights) -> float:
        return self.evaluate(weights)[0]

    def value_and_subgradient(self, weights):
        return self.evaluate(weights)[:2]


def subgradient_minimize(value_and_grad, dim: int, cfg: SolverConfig):
    """Generic best-iterate subgradient loop from the zero start.

    Subgradient steps are not descent steps, so the running best iterate is
    tracked and returned along with a convergence flag (no significant
    improvement of the best value over the trailing window).
    """
    w = np.zeros(dim)
    best_w = w.copy()
    best_value = math.inf
    window = max(100, cfg.max_iters // 20)
    snapshot = math.inf
    for t in range(1, cfg.max_iters + 1):
        value, grad = value_and_grad(w)
        if value < best_value:
            best_value = value
            best_w = w.copy()
        if t == cfg.max_iters - window:
            snapshot = best_value
        w = w - cfg.c / math.sqrt(t) * grad
    converged = snapshot - best_value <= CONVERGENCE_TOL * (1.0 + abs(best_value))
    return best_w, bool(converged)


def train_mrc(
    loss: Loss,
    box: ExpectationBox,
    atoms: ConstraintAtoms,
    cfg: SolverConfig = SolverConfig(),
    feature_map=None,
) -> MrcModel:
    """Minimize the reduced dual by subgradient descent, keeping the best iterate.

    Non-convergence within the budget is reported on the model, not raised.
    """
    objective = ReducedObjective(loss, box, atoms)
    best_w, converged = subgradient_minimize(
        objective.value_and_subgradient, box.dim, cfg
    )
    return objective.model(best_w, feature_map, converged)


def solve_box_lp(box: ExpectationBox, rows, sizes, rhs, solve_lp):
    """The box's dual as one LP, solved by ``solve_lp``:

        L(t) = min half_width.|w| - midpoint.w - o   s.t.  rows.w + sizes*o <= t

    over columns [w+, w-, u+, u-] >= 0, with w = w+ - w- and the offset
    written u = o + shift for the smallest shift >= 0 that makes every
    right-hand side t + sizes*shift non-negative, as ``solve_lp`` requires.
    ``sizes`` must be positive.  Returns the weights and L(t).  Training and
    the bound programs pass their own module's ``solve_lp``, so profiles tell
    their LPs apart.
    """
    sizes = np.broadcast_to(sizes, rhs.shape)
    shift = max(0.0, float(np.max(-rhs / sizes)))
    A = np.hstack([rows, -rows, sizes[:, None], -sizes[:, None]])
    c = np.concatenate(
        [box.half_width - box.midpoint, box.half_width + box.midpoint, [-1.0, 1.0]]
    )
    res = solve_lp(c, A, rhs + sizes * shift)
    if res.status != OPTIMAL:
        # always feasible (zero weights, a small enough offset), so a
        # non-optimal status is an unbounded descent: by duality the box
        # admits no distribution on the patterns.  Boxes built from data
        # always contain the empirical distribution.
        raise RuntimeError(
            f"box LP {res.status}: the box excludes every distribution "
            "supported on the constraint patterns"
        )
    m = box.dim
    return res.x[:m] - res.x[m : 2 * m], res.value + shift


def train_zero_one_exact(
    box: ExpectationBox,
    atoms: ConstraintAtoms,
    cfg: SolverConfig = SolverConfig(),
    feature_map=None,
) -> MrcModel:
    """Exact 0-1 training: the box LP with one row per (pattern, label subset S),

        sum_{y in S} f_j(y).w + |S| o <= 1 - |S|,

    which linearizes the positive parts of the 0-1 dual constraint.  The row
    count is r * (2^K - 1), so the class count is capped.
    """
    K = atoms.num_classes
    if K > MAX_CLASSES_EXACT_LP:
        raise ValueError(
            f"exact LP path supports at most {MAX_CLASSES_EXACT_LP} classes, got {K}"
        )
    m = atoms.dim
    masks = np.array(
        [[(s >> y) & 1 for y in range(K)] for s in range(1, 2**K)], dtype=np.float64
    )
    sizes = np.tile(masks.sum(axis=1), atoms.count)
    # row (j, S): the sum over labels in S of pattern j's label-block vectors
    rows = (masks @ label_blocks(atoms.patterns, K).reshape(-1, K, m)).reshape(-1, m)
    w, _ = solve_box_lp(box, rows, sizes, 1.0 - sizes, solve_lp)
    return ReducedObjective(ZERO_ONE, box, atoms).model(w, feature_map)


def dual_feasibility_residual(model: MrcModel, atoms: ConstraintAtoms) -> float:
    """Worst violation of the dual constraint over all patterns (<= 0 is feasible)."""
    offset = model.dual_offset("dual_feasibility_residual")
    return model.loss.residual(atoms.scores(model.weights), offset)
