"""Brute-force references for desk-scale instances.

Primal maximum entropy by enumerating a lattice of joint distributions, the
raw minimax value by additionally enumerating gridded classification rules,
and a distribution's entropy by minimizing its expected score over a gridded
simplex.  All are accurate to O(grid step) and exist to certify the dual
solvers and the closed-form entropies on tiny instances; nothing here is
meant to scale.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .core import ExpectationBox, FeatureMap, Loss, label_blocks
from .datasets import KnownJoint

__all__ = [
    "brute_force_max_entropy",
    "exhaustive_minimax",
    "entropy_by_minimization",
    "cell_features",
    "compositions",
    "grid_units",
    "simplex_grid",
]

_SCORE_CAP = 1e6  # finite stand-in for +inf scores on gridded rules
_LATTICE_CHUNK = 400_000  # lattice points converted to float64 at a time
_RULE_CHUNK = 256  # gridded rules scored at a time


def compositions(units: int, parts: int) -> np.ndarray:
    """All non-negative integer vectors of length ``parts`` summing to ``units``,
    as int32 rows in lexicographic order.

    Column i repeats each choice at depth i once per completion of the later
    parts, so the table is written in place, one column at a time.
    """
    if parts < 1:
        raise ValueError("parts must be >= 1")
    table = np.empty((math.comb(units + parts - 1, parts - 1), parts), dtype=np.int32)
    remaining = np.array([units], dtype=np.int32)
    for i in range(parts - 1):
        reps = remaining + 1
        first = np.arange(reps.sum(), dtype=np.int32)
        first -= np.repeat(np.cumsum(reps, dtype=np.int32) - reps, reps)
        remaining = np.repeat(remaining, reps)
        remaining -= first
        # r units left over the parts - 1 - i later columns complete in
        # comb(r + later, later) ways; at the last choice that is one way
        later = parts - 2 - i
        if later:
            completions = [math.comb(r + later, later) for r in range(units + 1)]
            first = np.repeat(first, np.array(completions)[remaining])
        table[:, i] = first
    table[:, -1] = remaining
    return table


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


def cell_features(fm: FeatureMap, instances) -> np.ndarray:
    """Feature vectors of every (instance, label) cell, shape (|X|*K, m).

    Cell order is instance-major: (x_0, y=1), (x_0, y=2), ..., (x_1, y=1), ...
    """
    X = np.atleast_2d(np.asarray(instances, dtype=np.float64))
    return label_blocks(fm.indicator_matrix(X), fm.num_classes)


def _feasible_tables(fm: FeatureMap, instances, box: ExpectationBox, step, marginal):
    """Flattened joint tables on the step lattice over the instances whose
    feature expectations fall in the box padded by a grid-sized slack (so
    interiors are never missed) and, given an instance marginal, whose own
    marginal lies within a step of it; yielded chunk by chunk, in the
    lattice's lexicographic order.  The lattice is enumerated one leading
    entry at a time, so only the block of its completions is ever held."""
    K = fm.num_classes
    units = grid_units(step)
    cell_phi = cell_features(fm, instances)
    slack = step * float(np.abs(cell_phi).max(initial=0.0))
    for first in range(units + 1):
        rest = compositions(units - first, cell_phi.shape[0] - 1)
        for lo in range(0, rest.shape[0], _LATTICE_CHUNK):
            block = rest[lo : lo + _LATTICE_CHUNK]
            P = np.empty((block.shape[0], cell_phi.shape[0]))
            P[:, 0] = first
            P[:, 1:] = block
            P /= units
            E = P @ cell_phi
            ok = np.all(E >= box.lower - slack, axis=1) & np.all(E <= box.upper + slack, axis=1)
            if marginal is not None:
                px = P.reshape(P.shape[0], -1, K).sum(axis=2)
                ok &= np.all(np.abs(px - np.asarray(marginal)[None, :]) <= step, axis=1)
            yield P[ok]


def brute_force_max_entropy(
    loss: Loss,
    fm: FeatureMap,
    instances,
    box: ExpectationBox,
    grid_step: float = 0.02,
    instance_marginal=None,
) -> float:
    """Maximum entropy over the gridded box, exact up to O(grid_step).

    Maximizes the closed-form entropy over the lattice joint tables that
    the (slack-padded) box admits.  An empty filtered set reports -inf with
    a diagnostic.
    """
    K = fm.num_classes
    tops = [
        float(loss.entropy(P.reshape(P.shape[0], -1, K)).max())
        for P in _feasible_tables(fm, instances, box, grid_step, instance_marginal)
        if P.shape[0]
    ]
    if not tops:
        warnings.warn(
            "no lattice distribution satisfies the box; grid too coarse "
            "for this box (returning -inf)",
            stacklevel=2,
        )
        return -np.inf
    return max(tops)


def exhaustive_minimax(
    loss: Loss,
    fm: FeatureMap,
    instances,
    box: ExpectationBox,
    rule_grid_step: float = 0.05,
    dist_grid_step: float = 0.05,
    instance_marginal=None,
) -> float:
    """min over gridded rules of max over gridded feasible distributions.

    Matches ``brute_force_max_entropy`` within the combined grid slack.
    Infinite scores on boundary grid rules are capped at a large constant,
    which cannot affect the minimax value at desk scale.
    """
    P = np.concatenate(
        list(_feasible_tables(fm, instances, box, dist_grid_step, instance_marginal))
    )
    if P.shape[0] == 0:
        warnings.warn("no feasible gridded distribution; returning +inf", stacklevel=2)
        return np.inf

    K = fm.num_classes
    nx = P.shape[1] // K
    qgrid = simplex_grid(K, rule_grid_step)
    table = np.clip(loss.loss_table(qgrid), None, _SCORE_CAP)
    G = qgrid.shape[0]
    combos = np.stack(
        np.meshgrid(*([np.arange(G)] * nx), indexing="ij"), axis=-1
    ).reshape(-1, nx)

    best = np.inf
    for lo in range(0, combos.shape[0], _RULE_CHUNK):
        idx = combos[lo : lo + _RULE_CHUNK]
        Lmat = table[idx].reshape(idx.shape[0], nx * K)  # (R, cells)
        worst = (P @ Lmat.T).max(axis=0)
        top = float(worst.min())
        if top < best:
            best = top
    return best


def entropy_by_minimization(loss: Loss, joint: KnownJoint, grid_step: float = 0.01) -> float:
    """Entropy via per-instance minimization over a gridded simplex.

    Agrees with the closed form ``loss.entropy(joint.probs)`` within
    O(grid_step) and never falls below it (the grid restricts the minimizer).
    """
    # score table L(q, y) for every grid point, (G, K); inf rows are fine,
    # they simply never win the minimum when the mass is positive.
    table = loss.loss_table(simplex_grid(joint.num_classes, grid_step))
    total = 0.0
    for row in joint.probs:
        total += (np.where(row > 0.0, table, 0.0) @ row).min()  # 0 * inf := 0
    return float(total)
