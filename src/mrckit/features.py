"""Threshold feature construction and the empirical quantities built from it.

Thresholds come from one-dimensional decision stumps grown independently per
instance dimension: greedy binary splits maximizing Gini impurity decrease,
up to a leaf budget per dimension.  Candidate split points are midpoints of
consecutive distinct values.
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
    """sum_c n_c^2 / n per row of a (..., C) count array; 0 for empty rows."""
    totals = counts.sum(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        s = (counts.astype(np.float64) ** 2).sum(axis=-1) / totals
    return np.where(totals > 0, s, 0.0)


def _best_split(values, cum, lo, hi):
    """Best Gini split of the sorted slice [lo, hi).

    ``cum`` holds cumulative class counts over the sorted order with a
    leading zero row.  Returns (gain, boundary) where the left part is
    [lo, boundary); gain is the decrease of count-weighted Gini impurity.
    Only boundaries between distinct values qualify.
    """
    n = hi - lo
    if n < 2:
        return 0.0, -1
    boundaries = np.arange(lo + 1, hi)
    distinct = values[boundaries] != values[boundaries - 1]
    boundaries = boundaries[distinct]
    if boundaries.size == 0:
        return 0.0, -1
    left = cum[boundaries] - cum[lo]
    right = cum[hi] - cum[boundaries]
    parent = cum[hi] - cum[lo]
    # weighted impurity n*G(S) = n - sum n_c^2/n, so the decrease is
    # sum n_c^2/n (left) + (right) - (parent)
    gains = _gini_score(left) + _gini_score(right) - _gini_score(parent[None, :])[0]
    k = int(np.argmax(gains))
    return float(gains[k]), int(boundaries[k])


def stump_thresholds_1d(values, labels, num_classes, max_leaves):
    """Split values of one dimension greedily; returns sorted threshold list.

    Grows until the leaf budget is reached, no leaf is impure, or no split
    decreases impurity (perfectly mixed labels at every candidate yield no
    thresholds).
    """
    order = np.argsort(values, kind="stable")
    v = np.asarray(values, dtype=np.float64)[order]
    lab = np.asarray(labels, dtype=np.int64)[order] - 1
    n = v.shape[0]
    cum = np.zeros((n + 1, num_classes), dtype=np.int64)
    np.add.at(cum[1:], (np.arange(n), lab), 1)
    cum = np.cumsum(cum, axis=0)

    leaves = [(0, n)]
    thresholds = []
    while len(leaves) < max_leaves:
        best = (-1.0, -1, -1)  # gain, leaf index, boundary
        for i, (lo, hi) in enumerate(leaves):
            gain, boundary = _best_split(v, cum, lo, hi)
            if gain > best[0]:
                best = (gain, i, boundary)
        gain, i, boundary = best
        if boundary < 0 or gain <= _MIN_GINI_GAIN * max(1, n):
            break
        lo, hi = leaves.pop(i)
        leaves.extend([(lo, boundary), (boundary, hi)])
        thresholds.append(0.5 * (v[boundary - 1] + v[boundary]))
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
