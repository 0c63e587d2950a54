"""Bundled synthetic distributions with exactly computable risks.

Each generator is a fully known joint over a small instance lattice, so true
risks of any rule are exact sums rather than test-set estimates.  Samples are
reproducible from a seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Dataset, FeatureMap, Loss

__all__ = ["KnownJoint", "eight_point_joint", "lattice_joint", "two_class_demo_joint"]


@dataclass(frozen=True)
class KnownJoint:
    """Explicit joint distribution over a finite instance set."""

    instances: np.ndarray  # (nx, D)
    probs: np.ndarray  # (nx, K), sums to 1

    def __post_init__(self):
        X = np.atleast_2d(np.asarray(self.instances, dtype=np.float64))
        P = np.atleast_2d(np.asarray(self.probs, dtype=np.float64))
        if X.shape[0] != P.shape[0]:
            raise ValueError("instances and probs disagree on the instance count")
        if np.any(P < 0.0) or abs(P.sum() - 1.0) > 1e-12:
            raise ValueError("probs must be a joint distribution")
        X = X.copy()
        P = P.copy()
        X.setflags(write=False)
        P.setflags(write=False)
        object.__setattr__(self, "instances", X)
        object.__setattr__(self, "probs", P)

    @property
    def num_classes(self) -> int:
        return self.probs.shape[1]

    def sample(self, n: int, seed) -> Dataset:
        """Draw n iid pairs; reproducible for a given seed."""
        rng = np.random.default_rng(seed)
        flat = self.probs.ravel()
        cells = rng.choice(flat.shape[0], size=n, p=flat)
        xi, yi = np.divmod(cells, self.num_classes)
        return Dataset(
            instances=self.instances[xi],
            labels=yi + 1,
            num_classes=self.num_classes,
        )

    def exact_feature_mean(self, fm: FeatureMap) -> np.ndarray:
        """Population expectation of the feature vector."""
        ind = fm.indicator_matrix(self.instances)
        blocks = self.probs.T @ ind  # (K, k+1)
        return blocks.ravel()

    def exact_risk(self, loss: Loss, rule_rows) -> float:
        """True expected loss of a rule given its probability rows per instance."""
        table = loss.loss_table(rule_rows)
        contrib = np.where(self.probs > 0.0, table * self.probs, 0.0)
        return float(contrib.sum())


def eight_point_joint() -> KnownJoint:
    """8 scalar instances, 2 labels, every instance mass >= 0.10.

    The label odds drop sharply mid-range, strong enough that confidence
    boxes sized for 95% coverage still leave a nontrivial classifier at a
    few hundred samples.
    """
    px = np.array([0.13, 0.12, 0.13, 0.12, 0.12, 0.13, 0.12, 0.13])
    p1 = np.array([0.95, 0.92, 0.88, 0.85, 0.15, 0.12, 0.08, 0.05])
    probs = np.stack([px * p1, px * (1.0 - p1)], axis=1)
    instances = np.arange(8.0)[:, None]
    return KnownJoint(instances=instances, probs=probs)


def two_class_demo_joint() -> KnownJoint:
    """A 2-D lattice of 20 instances: one strong dimension, one pure-noise one.

    The class-1 probability steps sharply across the first dimension while
    the second carries no signal, so threshold features separate the classes
    with wide margins and the training-time bounds stay comfortably two-sided
    at the default interval width.
    """
    x1 = np.arange(10.0)
    x2 = np.arange(2.0)
    instances = np.array([[a, b] for a in x1 for b in x2])
    base = np.array([0.98, 0.97, 0.95, 0.93, 0.90, 0.10, 0.07, 0.05, 0.03, 0.02])
    p1 = np.repeat(base, 2)
    px = np.full(20, 1.0 / 20.0)
    probs = np.stack([px * p1, px * (1.0 - p1)], axis=1)
    return KnownJoint(instances=instances, probs=probs)


def lattice_joint(rng, num_classes=4, side=6, spread=1.5, floor=0.1) -> KnownJoint:
    """K-class joint on a side x side lattice with class centres drawn from rng.

    Centres sit near evenly spaced anchors on a circle, jittered by up to one
    lattice step, so every draw gives K distinct but overlapping classes.
    p(y | x) mixes a Gaussian bump around each centre with a uniform floor;
    the instance marginal is uniform.
    """
    grid = np.arange(float(side))
    X = np.array([[a, b] for a in grid for b in grid])
    mid = (side - 1) / 2.0
    angles = 2.0 * np.pi * (np.arange(num_classes) + 0.5) / num_classes
    anchors = mid + 0.3 * side * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    centres = anchors + rng.uniform(-1.0, 1.0, size=anchors.shape)
    d2 = ((X[:, None, :] - centres[None, :, :]) ** 2).sum(axis=2)
    bump = np.exp(-d2 / (2.0 * spread**2))
    cond = (1.0 - floor) * bump / bump.sum(axis=1, keepdims=True) + floor / num_classes
    probs = cond / X.shape[0]
    return KnownJoint(instances=X, probs=probs / probs.sum())
