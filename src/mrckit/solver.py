"""Learning minimax risk classifiers from the reduced dual objective.

The full dual over (weights, eta, offsets) collapses to an unconstrained
convex problem in the weights alone: eta is optimal at |weights| because the
uncertainty set has non-negative half-widths, and each pattern's offset is
optimal at its largest feasible value

    offset_j(w) = max { o : per-loss constraint holds at pattern j }.

Each loss computes these maxima in ``Loss.active_label_weights``, in
closed form for 0-1 and log losses; for alpha losses each is the root of a
monotone equation over the top-scoring labels, a quadratic at alpha = 2
and safeguarded Newton steps otherwise, found here by
``max_offset_alpha``.  Training minimizes

    F(w) = half_width . |w| - midpoint . w - q . offsets(w),

with q one-hot at the smallest offset for the box alone, or the pattern
frequencies when the instances' marginal is pinned too.  For the box with
0-1 loss F is piecewise linear and its minimum an LP over one row per
(pattern, label subset), which ``train_zero_one_exact`` solves exactly for
any class count by generating only the subset rows the optimum needs; every
other dual is minimized by subgradient descent.  Either way each iterate
costs one ``ReducedDual.evaluate``: one scoring of the patterns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    ZERO_ONE,
    ConstraintAtoms,
    ExpectationBox,
    Loss,
    MrcModel,
    alpha_masses,
    beta_of_alpha,
    label_blocks,
    pattern_scores,
)
from .simplex import OPTIMAL, solve_lp

__all__ = [
    "SolverConfig",
    "dual_value",
    "ReducedDual",
    "ReducedObjective",
    "max_offset_alpha",
    "subgradient_minimize",
    "train_mrc",
    "solve_box_lp",
    "train_zero_one_exact",
    "dual_feasibility_residual",
]


CONVERGENCE_TOL = 1e-6  # relative best-value gain over the trailing window
# a pattern whose offset lies below the LP's by more than this, relative to
# 1 + |offset|, gets its subset row; the simplex leaves rows violated by at
# most 1e-11, so a row once added is never found short again
CUT_TOL = 1e-10


@dataclass(frozen=True)
class SolverConfig:
    """Iteration budget and step scale c (API only) of the c/sqrt(t) subgradient
    steps.  Exact 0-1 training reads ``max_iters`` as its cap on rounds of
    constraint generation."""

    max_iters: int = 20000
    c: float = 0.3

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not (math.isfinite(self.c) and self.c > 0.0):
            raise ValueError(f"step scale c must be finite and > 0, got {self.c!r}")


_NEWTON_STEPS = 100  # cap per call; a row stops once its step is below _NEWTON_RTOL of d
_NEWTON_RTOL = 1e-14
_GAP_BLOCK = 1 << 18  # pairwise label gaps held at once: 2 MB of float64
_EPS = np.finfo(np.float64).eps


def _active_labels(u, beta):
    """Labels whose breakpoint d = -u_j lies at or below the root, for beta > 1:
    those where the constraint sum_i (u_i - u_j)_+^beta is still <= 1.  A gap
    above 1 already puts a breakpoint past the root, so gaps are capped at 1
    (no overflow at huge beta) and such labels masked out.  A batch whose
    (rows, K, K) gaps would exceed 2 MB goes in blocks of rows, so that they
    stay small whatever the batch size."""
    step = max(1, _GAP_BLOCK // u.shape[1] ** 2)
    if len(u) > step:
        blocks = [_active_labels(u[a : a + step], beta) for a in range(0, len(u), step)]
        return np.concatenate(blocks)
    gaps = np.minimum(np.maximum(u[:, :, None] - u[:, None, :], 0.0), 1.0)
    return ((gaps**beta).sum(axis=1) <= 1.0) & (u >= -1.0)


def _newton_root(u, d, lo, hi, beta):
    """Root in [lo, hi] of sum_y (u_y + d)_+^beta = 1 per row, by Newton steps
    from ``d``, each clipped into the bracket (a NaN step lands on ``lo``).
    A row keeps its value once its step falls below ``_NEWTON_RTOL`` of it, so
    each row's result does not depend on the other rows."""
    done = np.zeros(d.shape, dtype=bool)
    for _ in range(_NEWTON_STEPS):
        x = np.maximum(u + d[:, None], 0.0)
        xp = x ** (beta - 1.0)
        step = ((xp * x).sum(axis=1) - 1.0) / (beta * xp.sum(axis=1))
        new = np.where(done, d, np.fmin(np.fmax(d - step, lo), hi))
        done = np.abs(new - d) <= _NEWTON_RTOL * new
        d = new
        if done.all():
            break
    return d


def _round_down_to_feasible(values, offsets, beta, scale):
    """Each offset stepped down until its row's constraint holds in floating
    point: 1, 4, 16, ... units of eps * (scale + |offset|) below, ``scale``
    bounding the terms it came from.  The offsets come in within rounding of
    the root, so one unit below nearly always holds and a single pass over
    the batch confirms it; a row that still fails steps further alone, so
    no row depends on the others.  Returns the offsets and the bases
    (values + offset)/beta + 1 at which the constraint held."""
    unit = _EPS * (scale + np.abs(offsets))
    trial = offsets - unit
    for n in range(1, 33):
        bases = (values + trial[:, None]) / beta + 1.0
        over = alpha_masses(bases, beta).sum(axis=1) > 1.0
        if not over.any():
            return trial, bases
        trial = np.where(over, offsets - unit * 4.0**n, trial)
    raise RuntimeError("alpha offset did not reach the feasible side")


def max_offset_alpha(values, alpha):
    """Largest offset o with sum_y ((v_y + o)/beta + 1)_+^beta <= 1 for each
    row of the (r, K) ``values``, and the bases at it.

    Returns (offsets, bases): the r offsets and the (r, K) bases
    (v_y + o)/beta + 1 at which their feasibility was confirmed.

    With the top score v_1 and u_y = (v_y - v_1)/beta, the offset is
    o = beta (d - 1) - v_1 for the root d of sum_y (u_y + d)_+^beta = 1,
    whose left side is monotone and convex in d on each bracket below.

    For beta > 1 the labels active at the root are a prefix in score order:
    the k largest scores, where k counts the breakpoints d = -u_j at which
    the constraint is still <= 1, so a per-label test finds them without a
    sort.  On the bracket [-u_k, min(-u_{k+1}, 1)] every term is at most 1
    (so a huge beta does not overflow) and the prefix equation is smooth:
    beta = 2 solves it as a quadratic in the prefix sums, other beta by
    Newton steps from the bracket's right end.  For beta < 0
    every label is active and the root lies in
    [max(1, K^(1/|beta|) - mean u), K^(1/|beta|)]; Newton steps run from the
    left end.  Either way they approach the root monotonically, stop on a
    relative step and never exceed a fixed count.  The result is then
    rounded down in one pass over the batch, to one unit
    eps (|beta| + |v_1| + |o|) below (further only on the rare row where
    that still fails), so it is feasible in floating point.  Alpha is
    validated once, here.  Raises ValueError naming alpha when a row's top
    score is not finite (weights that overflowed), and for alpha < 1 when
    the offset overflows float64 (alpha close to 0).
    """
    beta = beta_of_alpha(alpha)
    v = np.asarray(values, dtype=np.float64)
    top = v.max(axis=1)
    if not np.isfinite(top).all():
        raise ValueError(
            f"alpha {alpha!r} has no dual offset for scores that are not finite: "
            "the weights overflow float64 (is lambda huge?)"
        )
    u = (v - top[:, None]) / beta  # <= 0 for beta > 1, >= 0 for beta < 0
    if beta > 0:
        active = _active_labels(u, beta)
        if beta == 2.0:
            ua = u * active
            s1, s2, k = ua.sum(axis=1), (ua * ua).sum(axis=1), active.sum(axis=1)
            d = (np.sqrt(np.maximum(s1 * s1 - k * (s2 - 1.0), 0.0)) - s1) / k
        else:
            lo = np.where(active, -u, 0.0).max(axis=1)  # -u_k
            hi = np.where(active, 1.0, np.minimum(-u, 1.0)).min(axis=1)  # min(-u_{k+1}, 1)
            d = _newton_root(u, hi, lo, hi, beta)
    else:
        K = v.shape[1]
        try:
            hi = float(K) ** (-1.0 / beta)
        except OverflowError:
            raise ValueError(
                f"alpha {alpha!r} is too close to 0 for {K} labels: "
                "the dual offset overflows float64"
            ) from None
        lo = np.maximum(1.0, hi - u.mean(axis=1))
        d = _newton_root(u, lo, lo, hi, beta)
    return _round_down_to_feasible(v, beta * (d - 1.0) - top, beta, abs(beta) + np.abs(top))


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
        """(value, subgradient, offsets, label_weights) at ``weights``, all
        from one ``active_label_weights`` call on one scoring of the patterns.

        The box keeps the smallest offset, and d(-offset)/dw is its
        pattern written into each label block with its label weights: one
        outer product.  A pinned marginal q sums every pattern's, scaled by
        its q, in one product of the transposed weights with the patterns.
        """
        w = np.asarray(weights, dtype=np.float64)
        offsets, label_weights = self.loss.active_label_weights(self.atoms.scores(w))
        if self.marginal is None:
            j = offsets.argmin()
            offset = offsets[j]
            grad_offset = label_weights[j][:, None] * self.atoms.patterns[j]
        else:
            offset = self.marginal @ offsets
            grad_offset = (label_weights.T * self.marginal) @ self.atoms.patterns
        value = dual_value(w, self.half_width, self.midpoint, offset)
        grad = self.half_width * np.sign(w) - self.midpoint + grad_offset.ravel()
        return value, grad, offsets, label_weights

    def model(self, weights, feature_map=None, converged=True) -> MrcModel:
        """The trained model at ``weights``.  A pinned marginal's carries no
        offset and recomputes each instance's at prediction.  The box's
        carries the smallest offset, rounded to the feasible side for every
        loss: stepped down by 0, 1, 4, 16, ... units of
        eps (1 + |offset| + max|score|) until the dual constraint holds in
        floating point at every pattern, with the objective value at the
        stored offset.  An offset that already holds there, as every alpha
        offset does, stays as it is.  Both score the patterns with
        ``pattern_scores``, as prediction and the bounds do."""
        w = np.asarray(weights, dtype=np.float64)
        scores = pattern_scores(self.atoms.patterns, w)
        offsets = self.loss.offset(scores)
        offset = None
        if self.marginal is not None:
            value = dual_value(w, self.half_width, self.midpoint, self.marginal @ offsets)
        else:
            top = float(offsets.min())
            unit = _EPS * (1.0 + abs(top) + float(np.abs(scores).max()))
            for step in (0.0, *(4.0**n for n in range(32))):
                offset = float(top - unit * step)
                if self.loss.residual(scores, offset) <= 0.0:
                    break
            else:
                raise RuntimeError("box offset did not reach the feasible side")
            value = dual_value(w, self.half_width, self.midpoint, offset)
        return MrcModel(
            loss=self.loss,
            weights=w,
            offset=offset,
            objective_value=value,
            num_classes=self.atoms.num_classes,
            feature_map=feature_map,
            converged=bool(converged),
        )


class ReducedObjective(ReducedDual):
    """A feature-expectation box's reduced dual, evaluated as ``value_and_subgradient``."""

    def __init__(self, loss: Loss, box: ExpectationBox, atoms: ConstraintAtoms):
        super().__init__(loss, atoms, box.half_width, box.midpoint)

    value_and_subgradient = ReducedDual.evaluate


def subgradient_minimize(value_and_grad, dim: int, cfg: SolverConfig):
    """Generic best-iterate subgradient loop from the zero start, reading
    the value and a subgradient off ``value_and_grad(w)[:2]``.

    Subgradient steps are not descent steps, so the running best iterate is
    tracked and returned along with a convergence flag (no significant
    improvement of the best value over the trailing window).  An iterate
    that overflows float64 (steps at a huge box width) has an inf or nan
    value, which never becomes the best, so the loop runs with overflow
    warnings silenced.
    """
    w = np.zeros(dim)
    best_w = w.copy()
    best_value = math.inf
    window = max(100, cfg.max_iters // 20)
    snapshot = math.inf
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(1, cfg.max_iters + 1):
            value, grad = value_and_grad(w)[:2]
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
    """Minimize the reduced dual: exactly for 0-1 loss (``train_zero_one_exact``),
    else by subgradient descent keeping the best iterate.

    Non-convergence within the budget is reported on the model, not raised.
    """
    if loss == ZERO_ONE:
        return train_zero_one_exact(box, atoms, cfg, feature_map)
    objective = ReducedObjective(loss, box, atoms)
    best_w, converged = subgradient_minimize(objective.value_and_subgradient, box.dim, cfg)
    return objective.model(best_w, feature_map, converged)


def solve_box_lp(box: ExpectationBox, rows, sizes, rhs, solve_lp, cuts=None):
    """The box's dual as one LP, solved by ``solve_lp``:

        L(t) = min half_width.|w| - midpoint.w - o   s.t.  rows.w + sizes*o <= t

    over columns [w+, w-, u+, u-] >= 0, with w = w+ - w- and the offset
    written u = o + shift for the smallest shift >= 0 that makes every
    right-hand side t + sizes*shift non-negative, as ``solve_lp`` requires.
    ``sizes`` must be positive.  ``cuts(w, o)``, when given, is called at
    each optimum and returns further (rows, sizes, t), or None when it has
    none.  Returns the optimal weights only, at which ``bounds`` evaluates
    L(t).  Training and the bound programs pass their own module's
    ``solve_lp``, so profiles tell their LPs apart.

    ``solve_lp`` always gets a cuts callback, one that returns None when
    the caller has no cuts, so that it seeks its first optimum with
    perturbed right-hand sides: wherever t vanishes (training's starting
    rows, a 0-1 model's zero losses) many rows meet at one vertex, and
    unperturbed pivots stall there, or end in a false "unbounded".
    """
    sizes = np.broadcast_to(sizes, rhs.shape)
    shift = max(0.0, float(np.max(-rhs / sizes)))
    m = box.dim

    def columns(rows, sizes):
        return np.hstack([rows, -rows, sizes[:, None], -sizes[:, None]])

    def lp_cuts(x):
        if cuts is None:
            return None
        found = cuts(x[:m] - x[m : 2 * m], x[2 * m] - x[2 * m + 1] - shift)
        if found is None:
            return None
        rows, sizes, t = found
        return columns(rows, sizes), t + sizes * shift

    c = np.concatenate(
        [box.half_width - box.midpoint, box.half_width + box.midpoint, [-1.0, 1.0]]
    )
    res = solve_lp(c, columns(rows, sizes), rhs + sizes * shift, cuts=lp_cuts)
    if res.status != OPTIMAL:
        # always feasible (zero weights, a small enough offset, satisfy any
        # rows of positive sizes), so a non-optimal status is an unbounded
        # descent: by duality the box admits no distribution on the
        # patterns.  Boxes built from data always contain the empirical
        # distribution.
        raise RuntimeError(
            f"box LP {res.status}: the box excludes every distribution "
            "supported on the constraint patterns"
        )
    return res.x[:m] - res.x[m : 2 * m]


def train_zero_one_exact(
    box: ExpectationBox,
    atoms: ConstraintAtoms,
    cfg: SolverConfig = SolverConfig(),
    feature_map=None,
) -> MrcModel:
    """Exact 0-1 training: the box LP over the rows, one per pattern j and
    nonempty label subset S,

        sum_{y in S} f_j(y).w + |S| o <= 1 - |S|,

    which linearize the positive parts of the 0-1 dual constraint, grown by
    constraint generation (as Bondugula, Mazuelas & Perez, UAI 2023).  The
    LP starts from the singletons, the r*K label-block rows.  Each round
    evaluates F once at the LP's weights and adds, for every pattern whose
    offset lies below the LP's o by more than ``CUT_TOL``, the row of its
    minimizing subset, the labels that the same evaluation's 0-1 label
    weights weigh: an exact separation oracle, so at most r rows join per
    round.  The simplex resumes from its basis after each round.  ``cfg.max_iters`` caps the
    rounds; ``converged`` means no row was violated, which certifies the
    optimum, and a run that the cap cut returns its best round.
    """
    blocks = label_blocks(atoms.patterns, atoms.num_classes)
    objective = ReducedObjective(ZERO_ONE, box, atoms)
    rounds = 0
    best_value, best_w = math.inf, None
    converged = False

    def cuts(w, o):
        nonlocal rounds, best_value, best_w, converged
        rounds += 1
        value, _, offsets, weights = objective.value_and_subgradient(w)
        if value < best_value:
            best_value, best_w = value, w
        short = (offsets < o - CUT_TOL * (1.0 + abs(o))).nonzero()[0]
        converged = short.size == 0
        if converged or rounds >= cfg.max_iters:
            return None
        members = weights[short] > 0.0
        sizes = members.sum(axis=1).astype(np.float64)
        rows = (members[:, :, None] * atoms.patterns[short, None, :]).reshape(short.size, -1)
        return rows, sizes, 1.0 - sizes

    solve_box_lp(box, blocks, 1.0, np.zeros(len(blocks)), solve_lp, cuts)
    return objective.model(best_w, feature_map, converged)


def dual_feasibility_residual(model: MrcModel, atoms: ConstraintAtoms) -> float:
    """Worst violation of the dual constraint over all patterns (<= 0 is
    feasible), at the ``pattern_scores`` that prediction reads."""
    offset = model.dual_offset("dual_feasibility_residual")
    return model.loss.residual(pattern_scores(atoms.patterns, model.weights), offset)
