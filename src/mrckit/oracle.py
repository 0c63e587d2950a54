"""Brute-force references for desk-scale instances.

Primal maximum entropy by enumerating a lattice of joint distributions, and
the raw minimax value by additionally enumerating gridded classification
rules.  Both are accurate to O(grid step) and exist to certify the dual
solvers on tiny instances; nothing here is meant to scale.
"""

from __future__ import annotations

import warnings

import numpy as np

from .core import ConstraintAtoms, ExpectationBox, FeatureMap, Loss, label_blocks
from .entropies import compositions, grid_units, simplex_grid

__all__ = [
    "brute_force_max_entropy",
    "exhaustive_minimax",
    "cell_features",
    "atoms_from_instances",
]

_SCORE_CAP = 1e6  # finite stand-in for +inf scores on gridded rules


def cell_features(fm: FeatureMap, instances) -> np.ndarray:
    """Feature vectors of every (instance, label) cell, shape (|X|*K, m).

    Cell order is instance-major: (x_0, y=1), (x_0, y=2), ..., (x_1, y=1), ...
    """
    X = np.atleast_2d(np.asarray(instances, dtype=np.float64))
    return label_blocks(fm.indicator_matrix(X), fm.num_classes)


def _feasible_mask(P, cell_phi, box: ExpectationBox, slack, marginal, nx, K, mslack):
    E = P @ cell_phi
    ok = np.all(E >= box.lower - slack, axis=1) & np.all(E <= box.upper + slack, axis=1)
    if marginal is not None:
        px = P.reshape(-1, nx, K).sum(axis=2)
        ok &= np.all(np.abs(px - marginal[None, :]) <= mslack, axis=1)
    return ok


def brute_force_max_entropy(
    loss: Loss,
    fm: FeatureMap,
    instances,
    box: ExpectationBox,
    grid_step: float = 0.02,
    instance_marginal=None,
    chunk: int = 400_000,
) -> float:
    """Maximum entropy over the gridded box, exact up to O(grid_step).

    Enumerates the lattice of joint tables over the given instances, keeps
    those whose feature expectations fall in the box (with a grid-sized
    slack so interiors are never missed), and maximizes the closed-form
    entropy.  An empty filtered set reports -inf with a diagnostic.
    """
    X = np.atleast_2d(np.asarray(instances, dtype=np.float64))
    nx, K = X.shape[0], fm.num_classes
    cells = nx * K
    units = grid_units(grid_step)
    cell_phi = cell_features(fm, instances)
    slack = grid_step * float(np.abs(cell_phi).max(initial=0.0))
    marginal = None if instance_marginal is None else np.asarray(instance_marginal)
    mslack = grid_step

    lattice = compositions(units, cells)
    best = -np.inf
    feasible = 0
    for lo in range(0, lattice.shape[0], chunk):
        P = lattice[lo : lo + chunk].astype(np.float64) / units
        ok = _feasible_mask(P, cell_phi, box, slack, marginal, nx, K, mslack)
        if not ok.any():
            continue
        feasible += int(ok.sum())
        values = loss.entropy(P[ok].reshape(-1, nx, K))
        top = float(values.max())
        if top > best:
            best = top
    if feasible == 0:
        warnings.warn(
            "no lattice distribution satisfies the box; grid too coarse "
            "for this box (returning -inf)",
            stacklevel=2,
        )
    return best


def exhaustive_minimax(
    loss: Loss,
    fm: FeatureMap,
    instances,
    box: ExpectationBox,
    rule_grid_step: float = 0.05,
    dist_grid_step: float = 0.05,
    instance_marginal=None,
    rule_chunk: int = 256,
) -> float:
    """min over gridded rules of max over gridded feasible distributions.

    Matches ``brute_force_max_entropy`` within the combined grid slack.
    Infinite scores on boundary grid rules are capped at a large constant,
    which cannot affect the minimax value at desk scale.
    """
    X = np.atleast_2d(np.asarray(instances, dtype=np.float64))
    nx, K = X.shape[0], fm.num_classes
    units = grid_units(dist_grid_step)
    cell_phi = cell_features(fm, instances)
    slack = dist_grid_step * float(np.abs(cell_phi).max(initial=0.0))
    marginal = None if instance_marginal is None else np.asarray(instance_marginal)

    P = compositions(units, nx * K).astype(np.float64) / units
    ok = _feasible_mask(P, cell_phi, box, slack, marginal, nx, K, dist_grid_step)
    P = P[ok]
    if P.shape[0] == 0:
        warnings.warn("no feasible gridded distribution; returning +inf", stacklevel=2)
        return np.inf

    qgrid = simplex_grid(K, rule_grid_step)
    table = np.clip(loss.loss_table(qgrid), None, _SCORE_CAP)
    G = qgrid.shape[0]
    combos = np.stack(
        np.meshgrid(*([np.arange(G)] * nx), indexing="ij"), axis=-1
    ).reshape(-1, nx)

    best = np.inf
    for lo in range(0, combos.shape[0], rule_chunk):
        idx = combos[lo : lo + rule_chunk]
        Lmat = table[idx].reshape(idx.shape[0], nx * K)  # (R, cells)
        worst = (P @ Lmat.T).max(axis=0)
        top = float(worst.min())
        if top < best:
            best = top
    return best


def atoms_from_instances(fm: FeatureMap, instances) -> ConstraintAtoms:
    """Constraint patterns of an explicit instance set (no dataset needed)."""
    ind = fm.indicator_matrix(np.atleast_2d(np.asarray(instances, dtype=np.float64)))
    return ConstraintAtoms.from_indicators(ind, fm.num_classes)
