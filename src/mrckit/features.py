"""Threshold feature construction and the empirical quantities built from it.

Thresholds come from one-dimensional decision stumps grown independently per
instance dimension: greedy binary splits maximizing Gini impurity decrease,
up to a leaf budget per dimension.  A split between consecutive distinct
values a < b sits at their midpoint, or at a where the midpoint rounds up
to b.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ConstraintAtoms, Dataset, ExpectationBox, FeatureMap

__all__ = [
    "StumpSpec",
    "fit_thresholds",
    "stump_thresholds_1d",
    "estimate_expectations",
    "widths_vector",
    "hoeffding_widths",
    "widths_from_feature_range",
    "constraint_atoms",
]

# Strictly positive impurity decrease required to split; guards against
# splits that only exist through float round-off.
_MIN_GINI_GAIN = 1e-10


@dataclass(frozen=True)
class StumpSpec:
    """Leaf budget for the per-dimension stump trees (>= 2)."""

    max_leaves: int = 20

    def __post_init__(self):
        if self.max_leaves < 2:
            raise ValueError("max_leaves must be >= 2")


def _gini_score(counts):
    """sum_c n_c^2 / n per row of a (..., C) count array; no row may be empty."""
    return (counts.astype(np.float64) ** 2).sum(axis=-1) / counts.sum(axis=-1)


def _best_split(cuts, cum, lo, hi):
    """Best Gini split of the sorted slice [lo, hi).

    ``cuts`` holds the sorted positions b with values[b-1] != values[b], the
    only boundaries that qualify, and ``cum`` the cumulative class counts
    over the sorted order with a leading zero row.  Returns (gain, boundary)
    where the left part is [lo, boundary), or (0.0, -1) when the slice holds
    one distinct value; gain is the decrease of count-weighted Gini impurity.
    """
    boundaries = cuts[np.searchsorted(cuts, lo, side="right") : np.searchsorted(cuts, hi)]
    if boundaries.size == 0:
        return 0.0, -1
    left = cum[boundaries] - cum[lo]
    right = cum[hi] - cum[boundaries]
    # weighted impurity n*G(S) = n - sum n_c^2/n, so the decrease is
    # sum n_c^2/n (left) + (right) - (parent); no part is empty
    gains = _gini_score(left) + _gini_score(right) - _gini_score(cum[hi] - cum[lo])
    k = int(np.argmax(gains))
    return float(gains[k]), int(boundaries[k])


def stump_thresholds_1d(values, labels, num_classes, max_leaves):
    """Split values of one dimension greedily, best first; returns sorted thresholds.

    Each leaf's best split is searched once, when the leaf is made, and kept
    with it in insertion order; each round splits the first leaf of largest
    gain, so 2L-1 searches grow L leaves.  Growth stops at the leaf budget,
    or when no split decreases impurity (perfectly mixed labels at every
    candidate yield no thresholds).  A split between sorted neighbours a < b
    gets the threshold 0.5a + 0.5b, or a where that rounds up to b, so
    a <= t < b holds for all finite values.
    """
    order = np.argsort(values, kind="stable")
    v = np.asarray(values, dtype=np.float64)[order]
    n = v.shape[0]
    cuts = np.flatnonzero(v[1:] != v[:-1]) + 1
    cum = np.zeros((n + 1, num_classes), dtype=np.int64)
    onehot = np.asarray(labels)[order, None] - 1 == np.arange(num_classes)
    np.cumsum(onehot, axis=0, dtype=np.int64, out=cum[1:])

    leaves = {(0, n): _best_split(cuts, cum, 0, n)}
    thresholds = []
    while len(leaves) < max_leaves:
        (lo, hi), (gain, b) = max(leaves.items(), key=lambda leaf: leaf[1][0])
        if b < 0 or gain <= _MIN_GINI_GAIN * max(1, n):
            break
        del leaves[lo, hi]
        leaves[lo, b] = _best_split(cuts, cum, lo, b)
        leaves[b, hi] = _best_split(cuts, cum, b, hi)
        t = 0.5 * v[b - 1] + 0.5 * v[b]
        thresholds.append(t if t < v[b] else v[b - 1])
    return sorted(thresholds)


def fit_thresholds(data: Dataset, spec: StumpSpec = StumpSpec()) -> FeatureMap:
    """Fit a threshold feature map from training data, one stump per dimension.

    Constant dimensions contribute no thresholds; an all-constant dataset
    yields the intercept-only map.
    """
    pairs = []
    for d in range(data.dim):
        for t in stump_thresholds_1d(
            data.instances[:, d], data.labels, data.num_classes, spec.max_leaves
        ):
            pairs.append((d + 1, t))
    return FeatureMap(num_classes=data.num_classes, thresholds=tuple(pairs))


def feature_mean(atoms: ConstraintAtoms) -> np.ndarray:
    """Empirical mean of the feature vectors at the observed (x, y) pairs."""
    return atoms.mean


def widths_vector(widths, dim: int) -> np.ndarray:
    """Box widths as a finite, non-negative dim-vector; a scalar is broadcast."""
    widths = np.asarray(widths, dtype=np.float64)
    if widths.ndim == 0:
        widths = np.full(dim, float(widths))
    if widths.shape != (dim,):
        raise ValueError(f"widths must be scalar or have shape ({dim},), got {widths.shape}")
    if not np.all(np.isfinite(widths)) or np.any(widths < 0.0):
        raise ValueError("widths must be finite and componentwise >= 0")
    return widths


def estimate_expectations(fm: FeatureMap, data: Dataset, widths) -> ExpectationBox:
    """Empirical expectations plus the +-widths/sqrt(n) interval box."""
    widths = widths_vector(widths, fm.dim)
    atoms = ConstraintAtoms.from_indicators(
        fm.indicator_matrix(data.instances), fm.num_classes, data.labels
    )
    return ExpectationBox(feature_mean(atoms), widths, data.n)


def widths_from_feature_range(spread, delta: float) -> np.ndarray:
    """Interval widths d * sqrt((log m + log(2/delta)) / 2) from per-coordinate spreads."""
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    spread = np.asarray(spread, dtype=np.float64)
    m = spread.shape[0]
    return spread * math.sqrt((math.log(m) + math.log(2.0 / delta)) / 2.0)


def hoeffding_widths(fm: FeatureMap, delta: float) -> np.ndarray:
    """Widths making the box a level-(1-delta) confidence region for the mean.

    The spread of each coordinate comes from the feature map's structural
    range (indicators and the constant-1 slot over all instances and labels),
    not from data.
    """
    lo, hi = fm.structural_range()
    return widths_from_feature_range(hi - lo, delta)


def constraint_atoms(fm: FeatureMap, data: Dataset) -> ConstraintAtoms:
    """The training data's table: distinct indicator patterns with label counts.

    Dedup is exact bit equality, safe because entries are exactly 0/1; the
    pattern count never exceeds n.
    """
    return ConstraintAtoms.from_indicators(
        fm.indicator_matrix(data.instances), fm.num_classes, data.labels
    )
