"""Threshold feature construction and the empirical quantities built from it.

Thresholds come from one-dimensional decision stumps grown independently per
instance dimension: greedy binary splits maximizing Gini impurity decrease,
up to a leaf budget per dimension.  Each column is sorted once and collapsed
to its distinct values with per-class counts, and splits are searched over
the boundaries between distinct values, never over rows.  Tied rows are
never separated and their counts do not depend on their order, so an
unstable sort gives the same thresholds.  A split between consecutive
distinct values a < b sits at their midpoint, or at a where the midpoint
rounds up to b.
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
    "check_atoms",
    "widths_vector",
    "hoeffding_widths",
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
    """sum_c n_c^2 / n per column of a (C, ...) float array of integer
    counts, classes along the first axis; no column may be empty."""
    return (counts * counts).sum(axis=0) / counts.sum(axis=0)


def _best_split(cum, lo, hi):
    """Best Gini split of the leaf holding the distinct values [lo, hi).

    ``cum`` holds the label-major prefix counts, exact in float64:
    cum[c, j] rows of class c + 1 take one of the j smallest distinct
    values.  Every boundary strictly inside the leaf qualifies.  Returns
    (gain, boundary) where the left part is [lo, boundary), or (0.0, -1)
    when the leaf holds one distinct value; gain is the decrease of
    count-weighted Gini impurity.
    """
    if hi - lo < 2:
        return 0.0, -1
    # counts left of each boundary lo+1..hi; the last is the whole leaf
    left = cum[:, lo + 1 : hi + 1] - cum[:, lo, None]
    right = left[:, -1, None] - left[:, :-1]
    # weighted impurity n*G(S) = n - sum n_c^2/n, so the decrease is
    # sum n_c^2/n (left) + (right) - (parent); no part is empty
    scores = _gini_score(left)
    gains = scores[:-1] + _gini_score(right) - scores[-1]
    k = int(np.argmax(gains))
    return float(gains[k]), lo + 1 + k


def stump_thresholds_1d(values, labels, num_classes, max_leaves):
    """Split values of one dimension greedily, best first; returns sorted thresholds.

    ``values`` must be finite and ``labels`` hold one integer in
    1..``num_classes`` per value; ValueError otherwise.  The values are
    sorted once and collapsed to their G distinct values, with the count of
    each class at each; a leaf is a run of distinct values and its split
    search reads only those counts.  A split never separates tied rows, and
    the counts are integers exact in float64, so the order the sort leaves
    ties in (it need not be stable) changes no threshold.

    Each leaf's best split is searched once, when the leaf is made, and kept
    with it in insertion order; each round splits the first leaf of largest
    gain, so 2L-1 searches grow L leaves.  Growth stops at the leaf budget,
    or when no split decreases impurity (perfectly mixed labels at every
    candidate yield no thresholds).  A split between distinct neighbours
    a < b gets the threshold 0.5a + 0.5b, or a where that rounds up to b,
    so a <= t < b.
    """
    values = np.asarray(values, dtype=np.float64)
    labels = np.asarray(labels)
    if values.ndim != 1 or labels.shape != values.shape:
        raise ValueError(f"want one label per value: {labels.shape} labels, {values.shape} values")
    if not np.all(np.isfinite(values)):
        raise ValueError("values must be finite")
    if labels.size and (
        labels.dtype.kind not in "iu" or labels.min() < 1 or labels.max() > num_classes
    ):
        raise ValueError(f"labels must be integers in 1..{num_classes}")
    n = values.shape[0]
    order = np.argsort(values)
    v = values[order]
    first = np.ones(n, dtype=bool)  # the first row of each run of equal values
    np.not_equal(v[1:], v[:-1], out=first[1:])
    u = v[first]
    g = u.shape[0]
    # one cell per (class, distinct value), label-major, so that each class's
    # counts are contiguous; in float64 every count, square and sum of them
    # is exact while n**2 < 2**53
    cells = (labels[order].astype(np.int64, copy=False) - 1) * g + np.cumsum(first) - 1
    counts = np.bincount(cells, minlength=num_classes * g).reshape(num_classes, g)
    cum = np.zeros((num_classes, g + 1))
    np.cumsum(counts, axis=1, out=cum[:, 1:])

    leaves = {(0, g): _best_split(cum, 0, g)}
    thresholds = []
    while len(leaves) < max_leaves:
        (lo, hi), (gain, j) = max(leaves.items(), key=lambda leaf: leaf[1][0])
        if j < 0 or gain <= _MIN_GINI_GAIN * max(1, n):
            break
        del leaves[lo, hi]
        leaves[lo, j] = _best_split(cum, lo, j)
        leaves[j, hi] = _best_split(cum, j, hi)
        t = 0.5 * u[j - 1] + 0.5 * u[j]
        thresholds.append(t if t < u[j] else u[j - 1])
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


def check_atoms(fm: FeatureMap, data: Dataset, atoms: ConstraintAtoms) -> ConstraintAtoms:
    """``atoms``, once checked to be a labelled table of as many rows as
    ``data`` in ``fm``'s class count and dimension; ValueError otherwise."""
    if (
        atoms.num_classes != fm.num_classes
        or atoms.dim != fm.dim
        or atoms.counts is None
        or atoms.n != data.n
    ):
        raise ValueError(
            f"atoms is not a table of {data.n} labeled rows of {fm.num_classes} classes "
            f"in dimension {fm.dim}"
        )
    return atoms


def estimate_expectations(fm: FeatureMap, data: Dataset, widths, atoms=None) -> ExpectationBox:
    """Empirical expectations plus the +-widths/sqrt(n) interval box.

    The mean is read from ``atoms``, the table of ``data`` under ``fm``
    (``constraint_atoms(fm, data)``), when given, else from a table built
    here; a table of another class count, dimension or row count is a
    ValueError (``check_atoms``).
    """
    widths = widths_vector(widths, fm.dim)
    if atoms is None:
        atoms = ConstraintAtoms.from_instances(fm, data.instances, data.labels)
    else:
        check_atoms(fm, data, atoms)
    return ExpectationBox(feature_mean(atoms), widths, data.n)


def hoeffding_widths(fm: FeatureMap, delta: float) -> np.ndarray:
    """Widths making the box a level-(1-delta) confidence region for the mean:
    sqrt((log m + log(2/delta)) / 2) in each of the m = ``fm.dim`` coordinates.

    Every coordinate spreads over [0, 1], not a range read from data: an
    indicator block moves between occupied and unoccupied label slots, so with
    >=2 classes each coordinate attains both 0 and 1 over all (x, y).
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    return np.full(fm.dim, math.sqrt((math.log(fm.dim) + math.log(2.0 / delta)) / 2.0))


def constraint_atoms(fm: FeatureMap, data: Dataset) -> ConstraintAtoms:
    """The training data's table: distinct indicator patterns with label counts.

    Each occupied cell (``FeatureMap.cells``) is one pattern: indicators are
    computed once per cell, never for all n rows, and there are at most n.
    """
    return ConstraintAtoms.from_instances(fm, data.instances, data.labels)
