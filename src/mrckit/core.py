"""Shared domain types: losses, datasets, feature maps, moment boxes, models.

Each loss computes its own largest feasible dual offsets, in closed form
for 0-1 and log; alpha's root search is ``solver.max_offset_alpha``.

Labels are 1-based everywhere a user can see them ({1..K}), matching the
usual convention for class identifiers.  Array indexing is 0-based purely
internally and never leaks into files or CLI output.

All types here are immutable after construction (frozen dataclasses with
read-only numpy buffers) and therefore safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "Loss",
    "ZeroOneLoss",
    "LogLoss",
    "AlphaLoss",
    "ZERO_ONE",
    "LOG",
    "beta_of_alpha",
    "Dataset",
    "FeatureMap",
    "ExpectationBox",
    "ConstraintAtoms",
    "label_blocks",
    "pattern_scores",
    "MrcModel",
    "BoundReport",
]


def _frozen(a, dtype=np.float64):
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


def beta_of_alpha(alpha: float) -> float:
    """Exponent conjugate alpha/(alpha-1) used by the alpha-loss family.

    Finite and nonzero for every valid alpha; >1 when alpha>1, <0 when
    alpha<1.  A beta that rounds to 1, as only an alpha above 2^53 (about
    9.007e15) gives, is refused: the alpha formulas break down at the 0-1
    loss's exponent.  So is a |beta| above 1e10, as only an alpha within
    about 1e-10 of 1 gives: there the alpha formulas lose precision faster
    than they approach log loss's (on the two-class demo data, log loss
    bounds the risk by 0.3250, alpha = 1 + 1e-12 by 0.3276 and alpha =
    1 + 2^-52 by 1.365).  Every alpha with |alpha - 1| >= 1e-9 is accepted.
    """
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha!r}")
    if alpha <= 0.0 or alpha == 1.0:
        raise ValueError(f"alpha must be positive and != 1, got {alpha!r}")
    beta = alpha / (alpha - 1.0)
    if beta == 1.0:
        raise ValueError(f"alpha {alpha!r} is too large: its beta rounds to 1 (use zero-one)")
    if abs(beta) > 1e10:
        raise ValueError(f"alpha {alpha!r} is too close to 1: |beta| exceeds 1e10 (use log)")
    return beta


def logsumexp(v):
    """log sum_y exp(v_y) of each row of a 2-D array, shifted by the row's max."""
    vmax = v.max(axis=1, keepdims=True)
    return vmax[:, 0] + np.log(np.exp(v - vmax).sum(axis=1))


def alpha_masses(bases, beta):
    """Alpha-loss masses t_+^beta of the bases t = (score + offset)/beta + 1;
    +inf where beta < 0 clamps."""
    if beta > 0:
        return np.maximum(bases, 0.0) ** beta
    return np.where(bases > 0.0, np.maximum(bases, 1e-300) ** beta, np.inf)


def _xlogx(p):
    """p log p elementwise, with 0 log 0 = 0."""
    out = np.zeros_like(p)
    mask = p > 0.0
    out[mask] = p[mask] * np.log(p[mask])
    return out


class Loss:
    """A loss family and everything the maximum-entropy framework derives from it.

    A loss fixes its score table L(q, y), the generalized entropy
    H(p) = sum_x min_q sum_y p(x, y) L(q, y), the dual constraint whose
    largest feasible offset eliminates the scalar multiplier, the MRC rule
    read off the dual parameters, and the loss that rule incurs.  Scores are
    (n, K) arrays of linear scores per row and label; offsets are scalars or
    per-row columns.  A subclass implements every method that raises here.

    Each subclass computes its own offsets in ``active_label_weights``; only
    alpha's root search lives in ``solver`` (which imports this module), so
    ``AlphaLoss`` reaches ``solver.max_offset_alpha`` at call time.
    """

    name = "abstract"

    def __repr__(self):
        return f"{type(self).__name__}()"

    def loss_table(self, probs) -> np.ndarray:
        """Loss of probability rows at every label: table[..., y-1] = L(q, y).

        Zero probabilities give +inf under the log families.
        """
        raise NotImplementedError

    def entropy(self, joint) -> np.ndarray:
        """Generalized entropy of joint tables shaped (..., instances, labels)."""
        raise NotImplementedError

    def rule(self, scores, offset) -> np.ndarray:
        """Conditional probability rows of the MRC rule at raw (n, K) scores, at
        a scalar ``offset`` or, for None, at each row's largest feasible one."""
        raise NotImplementedError

    def rule_loss(self, scores, offset) -> np.ndarray:
        """Loss of the rule's own rows at every label, shape (n, K)."""
        return self.loss_table(self.rule(scores, offset))

    def offset(self, scores):
        """Largest offset keeping the dual constraint feasible, per score row:
        the offsets ``active_label_weights`` computes, bit for bit."""
        return self.active_label_weights(scores)[0]

    def active_label_weights(self, scores):
        """Per-row offsets with, per row, the label weights of a subgradient.

        Returns (offsets, weights): weights[j] is a distribution over labels
        such that the pattern of row j written into each label block with
        these weights is a subgradient of -offset_j.  ``ReducedDual.evaluate``
        makes one such call per objective evaluation and returns both, so
        each exact 0-1 round reads its cuts' label subsets off 0-1's weights
        from that same call, and log's rule is its weights.  One pass over the
        scores yields both, since the offset computation finds the active
        labels anyway: 0-1 from its sorted prefix, log from one exponential,
        alpha from the bases at which the offset's rounding confirmed
        feasibility.
        """
        raise NotImplementedError

    def residual(self, scores, offset) -> float:
        """Worst violation of the dual constraint over the score rows (<= 0 is feasible)."""
        raise NotImplementedError

    def to_json(self) -> dict:
        """Model-file fields naming this loss; ``from_spec`` reads them back."""
        return {"loss": self.name}

    @staticmethod
    def from_spec(spec) -> "Loss":
        """The loss named by CLI text ("zero-one", "log", "alpha:<a>") or by
        the ``to_json`` fields of a model file."""
        if isinstance(spec, dict):
            name, alpha = spec.get("loss"), spec.get("alpha")
        elif spec.startswith("alpha:"):
            name, alpha = "alpha", spec[len("alpha:") :]
        else:
            name, alpha = spec, None
        if name == "zero-one":
            return ZeroOneLoss()
        if name == "log":
            return LogLoss()
        if name == "alpha" and alpha is not None:
            try:
                return AlphaLoss(float(alpha))
            except (TypeError, ValueError) as exc:
                raise ValueError(f"bad alpha {alpha!r}: {exc}") from exc
        raise ValueError(f"unknown loss {name!r} (use zero-one, log, or alpha:<a>)")


@dataclass(frozen=True, repr=False)
class ZeroOneLoss(Loss):
    name = "zero-one"

    def loss_table(self, probs):
        return 1.0 - np.asarray(probs, dtype=np.float64)

    def entropy(self, joint):
        return 1.0 - np.asarray(joint, dtype=np.float64).max(axis=-1).sum(axis=-1)

    def rule(self, scores, offset):
        """Normalized positive parts (score + offset + 1)_+, uniform where they vanish."""
        scores = np.atleast_2d(scores)
        if offset is None:
            offset = self.offset(scores)[:, None]
        v = np.clip(scores + offset + 1.0, 0.0, None)
        totals = v.sum(axis=1, keepdims=True)
        k = v.shape[1]
        return np.where(totals > 0.0, v / np.where(totals > 0.0, totals, 1.0), 1.0 / k)

    def active_label_weights(self, scores):
        """Largest o with sum_y (v_y + o + 1)_+ <= 1, per row, and uniform
        weights on its minimizing label subset.

        The offset is min over nonempty label subsets C of
        (1 - sum_C (v_y + 1)) / |C|, and a minimizing C of size k collects
        the k largest scores, so a scan over the prefixes of a stable
        descending sort finds it; ties go to the smallest k.  The subset's
        labels are those whose place in that order (the inverse
        permutation) is below k.
        """
        rows = np.arange(scores.shape[0])
        order = (-scores).argsort(axis=1, kind="stable")
        k = np.arange(1.0, scores.shape[1] + 1.0)
        cand = (1.0 - scores[rows[:, None], order].cumsum(axis=1) - k) / k
        size = cand.argmin(axis=1) + 1
        place = order.argsort(axis=1)
        return cand[rows, size - 1], (place < size[:, None]) / size[:, None]

    def residual(self, scores, offset):
        lhs = np.clip(scores + offset + 1.0, 0.0, None).sum(axis=1)
        return float((lhs - 1.0).max())


@dataclass(frozen=True, repr=False)
class LogLoss(Loss):
    name = "log"

    def loss_table(self, probs):
        with np.errstate(divide="ignore"):
            return -np.log(np.asarray(probs, dtype=np.float64))

    def entropy(self, joint):
        p = np.asarray(joint, dtype=np.float64)
        return _xlogx(p.sum(axis=-1)).sum(axis=-1) - _xlogx(p).sum(axis=(-2, -1))

    def rule(self, scores, offset):
        """Row softmax of the scores, the label weights of
        ``active_label_weights``; any offset, None included, cancels."""
        return self.active_label_weights(np.atleast_2d(scores))[1]

    def rule_loss(self, scores, offset):
        """logsumexp(scores) - score, offset-free."""
        return logsumexp(scores)[:, None] - scores

    def active_label_weights(self, scores):
        """-logsumexp and the softmax of each row, from one exponential."""
        vmax = scores.max(axis=1, keepdims=True)
        e = np.exp(scores - vmax)
        total = e.sum(axis=1, keepdims=True)
        return -(vmax + np.log(total))[:, 0], e / total

    def residual(self, scores, offset):
        return float(logsumexp(scores + offset).max())


@dataclass(frozen=True)
class AlphaLoss(Loss):
    """alpha-loss with exponent beta = alpha/(alpha-1).

    Interpolates between log loss (alpha -> 1) and 0-1 loss (alpha -> inf).
    """

    alpha: float
    name = "alpha"

    def __post_init__(self):
        beta_of_alpha(self.alpha)  # validates

    @cached_property
    def beta(self) -> float:
        """alpha/(alpha-1), validated and computed once per loss."""
        return beta_of_alpha(self.alpha)

    def loss_table(self, probs):
        b = self.beta
        with np.errstate(divide="ignore"):
            return b * (1.0 - np.asarray(probs, dtype=np.float64) ** (1.0 / b))

    def entropy(self, joint):
        a, b = self.alpha, self.beta
        inner = (np.asarray(joint, dtype=np.float64) ** a).sum(axis=-1) ** (1.0 / a)
        return b * (1.0 - inner.sum(axis=-1))

    def base_masses(self, scores, offset):
        """((score + offset)/beta + 1)_+^beta; +inf where beta < 0 clamps.

        The dual constraint is that each row of these sums to at most 1; the
        residual and the rule read it from here, the offset search (which has
        the bases already) from ``alpha_masses``.
        """
        beta = self.beta
        return alpha_masses((scores + offset) / beta + 1.0, beta)

    def rule(self, scores, offset):
        """Base masses ((score + offset)/beta + 1)_+^beta with slack spread uniformly.

        Dual feasibility keeps each base row summing to at most 1; the uniform
        allocation of the deficit keeps the rule deterministic and symmetric.
        On a pattern the model was not trained on, the offset can be
        infeasible: rows whose masses exceed 1 + 1e-9 take their own largest
        feasible offset instead, as every row does when ``offset`` is None.
        """
        scores = np.atleast_2d(scores)
        if offset is None:
            base, own = np.empty_like(scores), np.ones(scores.shape[0], dtype=bool)
        else:
            base = self.base_masses(scores, offset)
            own = base.sum(axis=1) > 1.0 + 1e-9
        if np.any(own):
            base[own] = self.base_masses(scores[own], self.offset(scores[own])[:, None])
        totals = base.sum(axis=1)
        k = base.shape[1]
        slack = np.clip(1.0 - totals, 0.0, None)
        out = base + slack[:, None] / k
        over = totals > 1.0  # within tol: renormalize instead of going negative
        if np.any(over):
            out[over] = base[over] / totals[over, None]
        return out

    def active_label_weights(self, scores):
        """Normalized derivatives ((score + offset)/beta + 1)_+^(beta-1), from
        the bases at which the offset search confirmed feasibility.  No zero
        base meets a negative power: beta - 1 > 0 when beta > 1, and when
        beta < 0 every mass of a feasible row is at most 1, so every base is
        about 1 or more."""
        offsets, bases = solver.max_offset_alpha(scores, self.alpha)
        weights = np.maximum(bases, 0.0) ** (self.beta - 1.0)
        return offsets, weights / weights.sum(axis=1, keepdims=True)

    def residual(self, scores, offset):
        return float((self.base_masses(scores, offset).sum(axis=1) - 1.0).max())

    def to_json(self):
        return {"loss": self.name, "alpha": self.alpha}


ZERO_ONE = ZeroOneLoss()
LOG = LogLoss()


@dataclass(frozen=True)
class Dataset:
    """Training or evaluation sample: n instances of D real features, labels in {1..K}."""

    instances: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        X = np.atleast_2d(np.asarray(self.instances, dtype=np.float64))
        raw = np.asarray(self.labels).ravel()
        with np.errstate(invalid="ignore"):  # NaN and inf fail the check below
            y = raw.astype(np.int64, copy=False)
        if raw.dtype.kind == "f" and np.any(y != raw):
            raise ValueError("labels must be integers")
        if X.shape[0] != y.shape[0]:
            raise ValueError(f"{X.shape[0]} instances but {y.shape[0]} labels")
        if X.shape[0] < 1:
            raise ValueError("dataset must contain at least one sample")
        if not np.all(np.isfinite(X)):
            raise ValueError("instances contain non-finite values")
        if self.num_classes < 2:
            raise ValueError("num_classes must be >= 2")
        if y.min() < 1 or y.max() > self.num_classes:
            raise ValueError(f"labels must lie in 1..{self.num_classes}")
        X = _frozen(X)
        y = _frozen(y, dtype=np.int64)
        object.__setattr__(self, "instances", X)
        object.__setattr__(self, "labels", y)

    @property
    def n(self) -> int:
        return self.instances.shape[0]

    @property
    def dim(self) -> int:
        return self.instances.shape[1]


@dataclass(frozen=True)
class FeatureMap:
    """One-hot label blocks times threshold indicators.

    The per-instance part is [1, 1{x[d_1] <= t_1}, ..., 1{x[d_k] <= t_k}]
    and the full vector for (x, y) places that block at label y, zeros
    elsewhere, so the total dimension is num_classes * (k + 1).
    Threshold dims are 1-based.
    """

    num_classes: int
    thresholds: tuple  # ((dim, value), ...) with dim in 1..D

    def __post_init__(self):
        if self.num_classes < 2:
            raise ValueError("num_classes must be >= 2")
        th = tuple((int(d), float(t)) for d, t in self.thresholds)
        for d, t in th:
            if d < 1:
                raise ValueError(f"threshold dimension must be >= 1, got {d}")
            if not math.isfinite(t):
                raise ValueError("threshold values must be finite")
        object.__setattr__(self, "thresholds", th)

    @property
    def num_thresholds(self) -> int:
        return len(self.thresholds)

    @property
    def block_size(self) -> int:
        return len(self.thresholds) + 1

    @property
    def dim(self) -> int:
        """Total feature dimension num_classes * (k + 1)."""
        return self.num_classes * self.block_size

    def _instances(self, X) -> np.ndarray:
        """X as a 2-D float array, checked to have every dimension a threshold reads."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        for j, (d, _) in enumerate(self.thresholds, start=1):
            if d > X.shape[1]:
                raise ValueError(
                    f"instance has {X.shape[1]} dims but threshold {j} needs dim {d}"
                )
        return X

    @cached_property
    def _distinct_thresholds(self) -> tuple:
        """(dim, sorted distinct threshold values v_1 < ... < v_m, the
        dimension's pattern slots, the count that sets each) per dimension
        that has any: x is at most exactly the c largest values for its
        count c, so x <= t just when c reaches the number of values >= t."""
        out = []
        for d in sorted({d for d, _ in self.thresholds}):
            slots = [j for j, (e, _) in enumerate(self.thresholds, start=1) if e == d]
            ts = [self.thresholds[j - 1][1] for j in slots]
            values = np.unique(ts)
            out.append((d, values, slots, values.shape[0] - np.searchsorted(values, ts)))
        return tuple(out)

    def indicator_matrix(self, X) -> np.ndarray:
        """Per-instance block [1, indicators] for each row of X, shape (n, k+1).

        Each threshold fills one contiguous row of a (k+1, n) array, read
        from the matching row of X.T; the result is that array's transpose,
        so ``indicator_matrix(X).T`` holds one threshold per row.
        """
        XT = np.ascontiguousarray(self._instances(X).T)
        out = np.ones((self.block_size, XT.shape[1]))
        for j, (d, t) in enumerate(self.thresholds, start=1):
            np.less_equal(XT[d - 1], t, out=out[j])
        return out.T

    def cells(self, X):
        """The occupied cells of X's rows: (patterns, cell), each occupied
        cell's indicator row, (c, k+1) in C order (BLAS sums F order
        differently), and the cell of each row, numbered 0..c-1, so that
        ``patterns[cell]`` equals ``indicator_matrix(X)``.

        Rows share a cell just when they share a pattern.  On dimension d a
        row's indicators are fixed by one number, its count: how many of d's
        distinct thresholds t satisfy x <= t (0 for NaN, as every comparison
        with it is false), counted by one pass of the indicators' own
        comparison per threshold: on large batches that is many times faster
        than a binary search per row.  The counts of all dimensions combine by
        mixed radix in the smallest unsigned type that holds the space, and
        whenever the space would exceed n, and once at the end, the occupied
        ids are renumbered in order (a no-op when every id is occupied), so
        cells ascend by the tuple of per-dimension counts, dimensions
        ascending.  Each cell's counts are decoded from its id, and each of
        its thresholds is set once the count reaches the number of the
        dimension's distinct values at or above it.
        """
        X = self._instances(X)
        n = X.shape[0]
        cell, size = np.zeros(n, dtype=np.uint8), 1
        kept = []  # per dimension, the occupied ids renumbered before its combine
        for d, values, _, _ in self._distinct_thresholds:
            radix = values.shape[0] + 1
            before = None
            if size * radix > n:
                cell, before = _renumber(cell, size)
                size = before.shape[0]
            kept.append(before)
            column = np.ascontiguousarray(X[:, d - 1])
            count = np.zeros(n, dtype=np.min_scalar_type(values.shape[0]))
            for t in values:
                count += column <= t
            if size == 1:
                cell = count
            else:
                dt = np.min_scalar_type(max(size * radix - 1, 0))
                cell = np.multiply(cell, dt.type(radix), dtype=dt)
                cell += count
            size *= radix
        cell, ids = _renumber(cell, size)
        patterns = np.ones((ids.shape[0], self.block_size))
        for (_, values, slots, need), before in zip(
            reversed(self._distinct_thresholds), reversed(kept)
        ):
            ids, count = np.divmod(ids, values.shape[0] + 1)
            patterns[:, slots] = count[:, None] >= need
            if before is not None:
                ids = before[ids]
        return patterns, cell


def _renumber(cell, size):
    """(cell ids below ``size`` renumbered 0..c-1 in order, in the smallest
    unsigned type that holds them, the c occupied ids in order); the ids stay
    as they are when all ``size`` are occupied."""
    occupied = np.flatnonzero(np.bincount(cell, minlength=size))
    if occupied.shape[0] < size:
        ids = np.zeros(size, dtype=np.min_scalar_type(max(occupied.shape[0] - 1, 0)))
        ids[occupied] = np.arange(occupied.shape[0])
        cell = ids.take(cell)
    return cell, occupied


@dataclass(frozen=True)
class ExpectationBox:
    """Empirical feature expectations with the interval box around them.

    The box is mean +- widths/sqrt(n) componentwise, widths >= 0; its
    endpoints ``lower`` and ``upper`` are computed from those three.
    """

    mean: np.ndarray
    widths: np.ndarray
    n: int

    def __post_init__(self):
        mean = _frozen(self.mean)
        widths = _frozen(self.widths)
        if mean.shape != widths.shape:
            raise ValueError("mean and widths must share a shape")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if np.any(widths < 0.0):
            raise ValueError("widths must be componentwise >= 0")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "widths", widths)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    @cached_property
    def lower(self) -> np.ndarray:
        """mean - widths/sqrt(n)."""
        return _frozen(self.mean - self.widths * self.n ** -0.5)

    @cached_property
    def upper(self) -> np.ndarray:
        """mean + widths/sqrt(n)."""
        return _frozen(self.mean + self.widths * self.n ** -0.5)

    @cached_property
    def half_width(self) -> np.ndarray:
        """(upper - lower) / 2: widths/sqrt(n) up to rounding, not bit for bit."""
        return _frozen((self.upper - self.lower) / 2.0)

    @cached_property
    def midpoint(self) -> np.ndarray:
        """(upper + lower) / 2."""
        return _frozen((self.upper + self.lower) / 2.0)


def label_blocks(patterns, num_classes: int) -> np.ndarray:
    """Each pattern written into each label block, zeros elsewhere.

    Row j*K + y holds pattern j in the block of label y+1, so the result has
    shape (r*K, K*b) for r patterns of length b: the feature vectors of every
    (pattern, label) pair, pattern-major.
    """
    P = np.atleast_2d(patterns)
    r, b = P.shape
    out = np.zeros((r, num_classes, num_classes, b))
    labels = np.arange(num_classes)
    out[:, labels, labels, :] = P[:, None, :]
    return out.reshape(r * num_classes, num_classes * b)


def pattern_scores(patterns, weights) -> np.ndarray:
    """(r, K) scores of indicator patterns, pattern j in label y's block
    dotted with ``weights``, added one slot at a time so that a pattern's
    scores depend on it alone (a matrix product's order changes with the
    row count).  Prediction and every certificate score with it, so a bound
    certifies the rule ``predict_probs`` emits, bit for bit."""
    P = np.asarray(patterns, dtype=np.float64)
    W = np.asarray(weights, dtype=np.float64).reshape(-1, P.shape[1])
    scores = np.zeros((W.shape[0], P.shape[0]))
    for j in range(P.shape[1]):
        scores += W[:, j, None] * P[:, j]
    return np.ascontiguousarray(scores.T)


@dataclass(frozen=True)
class ConstraintAtoms:
    """The training data's sufficient statistics: distinct indicator patterns
    with the label counts of the rows at each.

    Pattern j induces one m-vector per label: the pattern written into that
    label's block.  ``scores(weights)`` is the (r, K) matrix of those
    vectors dotted with a weight vector, the training objective's product;
    a reported rule scores with ``pattern_scores``.  ``counts`` is absent
    only for tables built from patterns alone, which serve the
    box-constrained dual and the bounds but not the empirical mean or the
    fixed-marginal objectives.
    """

    patterns: np.ndarray  # (r, k+1) 0/1 entries, first column all ones
    num_classes: int
    counts: np.ndarray | None = None  # (r, K) training rows per pattern and label

    def __post_init__(self):
        P = np.atleast_2d(np.asarray(self.patterns, dtype=np.float64))
        if P.shape[0] < 1:
            raise ValueError("need at least one pattern")
        if not np.all((P == 0.0) | (P == 1.0)):
            raise ValueError("patterns must be 0/1 indicator vectors")
        if not np.all(P[:, 0] == 1.0):
            raise ValueError("first pattern slot is the constant-1 feature")
        if self.num_classes < 2:
            raise ValueError("num_classes must be >= 2")
        object.__setattr__(self, "patterns", _frozen(P))
        if self.counts is not None:
            C = _frozen(self.counts, dtype=np.int64)
            if C.shape != (P.shape[0], self.num_classes) or np.any(C < 0) or C.sum() < 1:
                raise ValueError("counts must be non-negative (r, K) with a positive total")
            object.__setattr__(self, "counts", C)

    @classmethod
    def from_instances(cls, fm: FeatureMap, X, labels=None) -> "ConstraintAtoms":
        """The table of X's indicator patterns under ``fm``, with label counts
        when labels (1..K) are given.

        Pattern j is cell j's pattern under ``FeatureMap.cells``, the cell
        map ``predict_probs`` reads too, and each row counts at its cell.
        For thresholds grouped by ascending dimension and strictly ascending
        within each, as in every ``fit_thresholds`` map, cell order is
        ``np.unique``'s order.
        """
        patterns, cell = fm.cells(X)
        counts = None
        if labels is not None:
            k, r = fm.num_classes, patterns.shape[0]
            labels = np.asarray(labels)
            if labels.shape != cell.shape:
                raise ValueError(f"labels of shape {labels.shape} for {cell.shape[0]} rows")
            if labels.min() < 1 or labels.max() > k:
                raise ValueError(f"labels must lie in 1..{k}")
            keys = np.multiply(cell, k, dtype=np.intp) + labels - 1
            counts = np.bincount(keys, minlength=r * k).reshape(r, k)
        return cls(patterns=patterns, num_classes=fm.num_classes, counts=counts)

    @property
    def count(self) -> int:
        return self.patterns.shape[0]

    @property
    def block_size(self) -> int:
        return self.patterns.shape[1]

    @property
    def dim(self) -> int:
        return self.num_classes * self.block_size

    @property
    def n(self) -> int:
        """Number of training rows the table summarizes."""
        if self.counts is None:
            raise ValueError("this table holds patterns only, no label counts")
        return int(self.counts.sum())

    @cached_property
    def mean(self) -> np.ndarray:
        """Empirical mean of the feature vectors at the observed (x, y) pairs."""
        return _frozen((self.counts.T @ self.patterns).ravel() / self.n)

    @cached_property
    def frequencies(self) -> np.ndarray:
        """Each pattern's share of the rows: the instances' empirical marginal."""
        return _frozen(self.counts.sum(axis=1) / self.n)

    @cached_property
    def regularizers(self) -> dict:
        """The fixed-marginal half-widths widths/sqrt(n) computed on this
        table so far, read-only, keyed by the widths' float64 (shape, bytes);
        ``marginals`` fills it.  It holds arrays only: anything stored here
        that refers back to the table would leave each table to the cyclic
        garbage collector."""
        return {}

    def scores(self, weights) -> np.ndarray:
        """(r, K) matrix of per-pattern, per-label linear scores by one BLAS
        product, the training objective's: its sums may differ from
        ``pattern_scores`` in the last bits, so it only chooses weights."""
        W = np.asarray(weights, dtype=np.float64).reshape(
            self.num_classes, self.block_size
        )
        return self.patterns @ W.T


@dataclass(frozen=True)
class MrcModel:
    """A trained minimax risk classifier.

    The offset decides how it predicts: a box-constrained model carries its
    scalar dual offset, and one that pins the instances' marginal has offset
    None, using each instance's own at prediction time.  The feature map is
    optional so solvers can emit models straight from constraint patterns;
    predicting on raw instances requires one.
    """

    loss: Loss
    weights: np.ndarray
    offset: float | None
    objective_value: float
    num_classes: int
    feature_map: FeatureMap | None = None
    converged: bool = True

    def __post_init__(self):
        w = _frozen(self.weights)
        if self.num_classes < 2:
            raise ValueError("num_classes must be >= 2")
        if w.ndim != 1 or w.shape[0] % self.num_classes != 0:
            raise ValueError(
                f"weights of shape {w.shape} do not split into {self.num_classes} label blocks"
            )
        if self.feature_map is not None:
            if self.feature_map.num_classes != self.num_classes:
                raise ValueError("feature map and model disagree on the class count")
            if w.shape != (self.feature_map.dim,):
                raise ValueError(
                    f"weights have shape {w.shape}, feature map needs ({self.feature_map.dim},)"
                )
        object.__setattr__(self, "weights", w)

    @property
    def variant(self) -> str:
        """"expectation" when the model carries a scalar offset, else "instance_marginal"."""
        return "expectation" if self.offset is not None else "instance_marginal"

    def dual_offset(self, use: str) -> float:
        """The scalar offset, which only expectation-constrained models carry;
        ``use`` names what needed it in the error for any other variant."""
        if self.offset is None:
            raise ValueError(
                f"{use} needs an expectation-constrained model, not variant {self.variant!r}"
            )
        return self.offset

    def features(self) -> FeatureMap:
        """The feature map, which predicting on raw instances needs."""
        if self.feature_map is None:
            raise ValueError("model carries no feature map")
        return self.feature_map


@dataclass(frozen=True)
class BoundReport:
    """Risk guarantee certificate: upper/lower bounds plus additive slack terms."""

    upper: float
    lower: float
    slack_terms: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.lower > self.upper + 1e-8:
            raise ValueError(
                f"lower bound {self.lower} exceeds upper bound {self.upper}"
            )


from . import solver  # noqa: E402  (for AlphaLoss; solver imports this module, so bound last)
