"""Score functions, empirical risks, and entropies on explicit distributions.

Conventions: 0 * log(0) = 0, and a log score of a zero probability is +inf
(reported, never raised).  The grid-minimization entropy exists as a test
oracle; it searches a simplex lattice and therefore can only overshoot the
closed form, by O(grid_step).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Dataset, Loss

__all__ = [
    "ExplicitDistribution",
    "score",
    "empirical_risk",
    "closed_form_entropy",
    "entropy_by_minimization",
    "compositions",
    "grid_units",
    "simplex_grid",
]


@dataclass(frozen=True)
class ExplicitDistribution:
    """A fully enumerated joint distribution over a small instance/label grid.

    ``probs[i, y-1]`` is the mass on (instance i, label y); the table must be
    non-negative and sum to 1 within 1e-12.
    """

    probs: np.ndarray

    def __post_init__(self):
        p = np.atleast_2d(np.asarray(self.probs, dtype=np.float64))
        if np.any(p < 0.0):
            raise ValueError("probabilities must be non-negative")
        if abs(p.sum() - 1.0) > 1e-12:
            raise ValueError("probabilities must sum to 1 within 1e-12")
        p = p.copy()
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)

    @property
    def num_instances(self) -> int:
        return self.probs.shape[0]

    @property
    def num_classes(self) -> int:
        return self.probs.shape[1]


def _check_distribution(q):
    q = np.asarray(q, dtype=np.float64)
    if np.any(q < 0.0) or abs(q.sum() - 1.0) > 1e-9:
        raise ValueError("q must be a probability vector (sum 1 within 1e-9)")
    return q


def score(loss: Loss, q, y: int) -> float:
    """Score of probability assessment q at label y for the given loss."""
    q = _check_distribution(q)
    if not 1 <= y <= q.shape[0]:
        raise ValueError(f"label {y} outside 1..{q.shape[0]}")
    return float(loss.loss_table(q)[y - 1])


def empirical_risk(loss: Loss, rule_probs, data: Dataset) -> float:
    """Mean loss of a rule (per-instance probability rows) on a dataset.

    Infinite log loss propagates as +inf rather than raising.
    """
    H = np.atleast_2d(np.asarray(rule_probs, dtype=np.float64))
    if H.shape != (data.n, data.num_classes):
        raise ValueError(f"rule has shape {H.shape}, need ({data.n}, {data.num_classes})")
    return float(np.mean(loss.loss_table(H)[np.arange(data.n), data.labels - 1]))


def closed_form_entropy(loss: Loss, dist: ExplicitDistribution) -> float:
    """Bayes risk of an explicit distribution, evaluated in closed form."""
    return float(loss.entropy(dist.probs))


def compositions(units: int, parts: int) -> np.ndarray:
    """All non-negative integer vectors of length ``parts`` summing to ``units``.

    Built level by level with vectorized expansion; row order is
    lexicographic in the leading coordinates.
    """
    if parts < 1:
        raise ValueError("parts must be >= 1")
    prefix = np.zeros((1, 0), dtype=np.int32)
    remaining = np.array([units], dtype=np.int32)
    for _ in range(parts - 1):
        reps = remaining + 1
        row_of = np.repeat(np.arange(remaining.shape[0]), reps)
        offsets = np.concatenate([[0], np.cumsum(reps)[:-1]])
        first = np.arange(reps.sum(), dtype=np.int32) - np.repeat(offsets, reps)
        prefix = np.hstack([prefix[row_of], first[:, None]])
        remaining = remaining[row_of] - first
    return np.hstack([prefix, remaining[:, None]])


def grid_units(step: float) -> int:
    """The number of grid steps in 1, for a step in (0, 1] that divides 1
    to within round-off; raises ValueError for any other step."""
    if not 0.0 < step <= 1.0 or 1.0 / step == np.inf:
        raise ValueError(f"grid step must lie in (0, 1] with a finite inverse, got {step!r}")
    units = round(1.0 / step)
    if abs(units * step - 1.0) > 1e-9:
        raise ValueError(f"grid step {step!r} does not divide 1")
    return units


def simplex_grid(num_classes: int, step: float) -> np.ndarray:
    """All probability vectors over {1..K} on the lattice of multiples of a
    step that ``grid_units`` accepts; rows sum to exactly 1."""
    units = grid_units(step)
    return compositions(units, num_classes) / units


def entropy_by_minimization(
    loss: Loss, dist: ExplicitDistribution, grid_step: float = 0.01
) -> float:
    """Entropy via per-instance minimization over a gridded simplex.

    Agrees with the closed form within O(grid_step) and never falls below it
    (the grid restricts the minimizer).
    """
    grid = simplex_grid(dist.num_classes, grid_step)
    # score table L(q, y) for every grid point, (G, K); inf rows are fine,
    # they simply never win the minimum when the mass is positive.
    table = loss.loss_table(grid)
    total = 0.0
    for i in range(dist.num_instances):
        row = dist.probs[i]
        vals = np.where(row > 0.0, table, 0.0) @ row  # 0 * inf := 0
        total += vals.min()
    return float(total)
