"""A fixed reference computation that measures how fast the machine runs right now.

On a shared machine the same code runs at different speeds from minute to
minute, as other tenants load the physical cores.  A run takes short
samples of this computation between its operations; the median of the
samples taken during a pass, against the nominal time, says how fast the
machine ran during that pass, and the run scales the pass's times to
nominal speed with it.

The computation never touches mrckit, so a change to the program cannot
move it.  It mixes what mrckit's layers spend their time on: numpy calls on
small vectors in a Python loop (the subgradient solver, the alpha bisection),
row-wise numpy on a cached table (the fixed-marginal objectives, the
simplex), sorting rows of 0/1 patterns (feature patterns), a streaming pass
over memory (large batches), and plain Python.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Typical median seconds of one sample on a shared 2-vCPU 2.0 GHz Xeon
# (numpy 2.4, one BLAS thread); it sets only the scale of the reported times.
NOMINAL_S = 0.009


class Reference:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.small = rng.random((20, 22))
        self.mid = rng.random(22)
        self.rows = rng.random((2000, 22))
        self.coef = rng.random(22)
        self.patterns = (rng.random((800, 11)) < 0.3).astype(np.float64)
        self.big = rng.random(1_000_000)  # 8 MB, past the per-core caches
        self.samples = []

    def _compute(self):
        # numpy on small vectors inside a Python loop
        w = np.zeros(self.small.shape[1])
        for t in range(1, 61):
            scores = self.small @ w
            j = int(np.argmax(scores))
            lo, hi = np.zeros_like(scores), np.ones_like(scores)
            for _ in range(4):
                half = 0.5 * (lo + hi)
                inside = np.maximum(scores - half, 0.0).sum() > 1.0
                lo, hi = (half, hi) if inside else (lo, half)
            grad = np.sign(w) - self.mid + self.small[j]
            w = w - (0.1 / t**0.5) * grad
        # row-wise numpy on a table that fits in cache
        for _ in range(3):
            z = self.rows * self.coef
            p = np.exp(z - z.max(axis=1, keepdims=True))
            np.argsort(p.sum(axis=1))
        # deduplicating 0/1 rows, as feature patterns are
        np.unique(self.patterns, axis=0)
        # a streaming pass over memory
        float(self.big @ self.big)
        float(self.big.sum())
        # plain Python
        total = 0
        for i in range(3000):
            total += (i * i) % 7
        return total

    def sample(self):
        """Run the computation once and record its seconds."""
        t0 = time.perf_counter()
        self._compute()
        self.samples.append(time.perf_counter() - t0)

    def scale(self, first=0):
        """Nominal over median time of the samples from ``first`` on.

        A time measured while those samples were taken, multiplied by it,
        reads as it would at nominal speed.
        """
        return NOMINAL_S / statistics.median(self.samples[first:])
