"""A fixed CPU kernel that measures how fast this machine runs right now.

The benchmark runs on shared hosts whose speed drifts by tens of percent
over seconds (other tenants, turbo and power limits).  That drift slows this
kernel as well as pel, though not by exactly the same factor, so every timed
round is bracketed by calibrations and its times are rescaled to the speed at
which the kernel takes ``NOMINAL_S``.  The kernel uses no pel code, so a change to pel cannot move
it; it mixes what pel's hot paths do: small complex GEMMs of the shapes the
mesh uses, a row gather and interpreted Python.
"""

import time

import numpy as np

#: the nominal kernel time, about its time on a 2-CPU x86-64 host (numpy
#: 2.4, OpenBLAS 0.3.31); a fixed unit, never re-tuned
NOMINAL_S = 0.005
_REPEATS = 40
_SAMPLES = 3


class Calibrator:
    """Holds the kernel's operands; ``slowdown()`` runs the kernel."""

    def __init__(self):
        rng = np.random.default_rng(0)
        shapes = range(1, 18)
        self.mats = [rng.standard_normal((s, s)) + 1j * rng.standard_normal((s, s))
                     for s in shapes]
        self.blocks = [rng.standard_normal((s, 60)) + 1j * rng.standard_normal((s, 60))
                       for s in shapes]
        self.perm = rng.permutation(4000)
        self.vectors = rng.standard_normal((4000, 4)) + 0j

    def kernel_seconds(self) -> float:
        """Fastest of a few runs of the kernel, in seconds."""
        best = float("inf")
        for _ in range(_SAMPLES):
            start = time.perf_counter()
            for _ in range(_REPEATS):
                for mat, block in zip(self.mats, self.blocks):
                    mat @ block
                self.vectors.take(self.perm, axis=0)
                table = {}
                for i in range(300):
                    table[i] = i * 0.5
            best = min(best, time.perf_counter() - start)
        return best

    def slowdown(self) -> float:
        """How much slower than nominal the machine runs now (1.0 = nominal)."""
        return self.kernel_seconds() / NOMINAL_S
