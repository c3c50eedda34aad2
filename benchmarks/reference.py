"""A fixed reference kernel that measures how fast the host runs right now.

On a shared host the same code runs up to ~1.5x slower for seconds to
minutes at a time while other tenants load the machine (CPU time slows
as much as wall time, so this is contention, not descheduling).  The
benchmark runs one pass of this kernel between operations, outside the
operation timer, and scales its times by ``NOMINAL_PASS_S`` over the
mean pass time of the same run.  A result in *reference seconds* is
then what the run would have taken with the host at its nominal speed,
so drift in the host cancels while a change to the program does not:
the kernel calls numpy directly and never the package under test.

A pass mixes what the simulator spends its time on: a thin complex SVD
(LAPACK), small dense solves and products, and pure-Python loop work.
Its inputs are fixed, never drawn from the run seed.
"""

from __future__ import annotations

import time

import numpy as np

# Wall time of one pass on the reference host when it was uncontended
# (2-vCPU shared VM, numpy with OpenBLAS on one thread).  A fixed scale:
# changing it rescales every result, so it is never re-tuned.
NOMINAL_PASS_S = 0.016


class ReferenceKernel:
    def __init__(self):
        rng = np.random.default_rng(20150813)
        self.thin = rng.standard_normal((512, 32)) + 1j * rng.standard_normal((512, 32))
        self.square = rng.standard_normal((64, 64)) + 64 * np.eye(64)
        self.rhs = rng.standard_normal(64)
        self.passes = []

    def run_pass(self) -> float:
        """Run one pass, record and return its wall time."""
        t0 = time.perf_counter()
        for _ in range(6):
            np.linalg.svd(self.thin, full_matrices=False)
        for _ in range(100):
            np.linalg.solve(self.square, self.rhs)
            (self.square @ self.square).sum()
        total = 0
        for i in range(30000):
            total += i * i % 7
        duration = time.perf_counter() - t0
        self.passes.append(duration)
        return duration


def speed_factor(mean_pass_s: float) -> float:
    """Reference seconds per wall second: below 1 while the host runs slow."""
    return NOMINAL_PASS_S / mean_pass_s
