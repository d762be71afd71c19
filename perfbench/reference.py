"""Machine-speed reference: a fixed kernel that runs no qbmgrad code.

The shared 2-vCPU Xeon VM this benchmark was built on changes speed by up to
2x over seconds to minutes, for Python and BLAS code alike.  Over ten 30 s
runs per workload the quartile spread of the median operation time in wall
seconds was up to 0.27 of its median, and running longer did not shrink it.
Timing this kernel right after every step of the loop and scaling the
step's wall times by NOMINAL_S / (kernel time) cancels most of that drift:
scaled, the spread stayed at or below 0.075.  Because the kernel is fixed
and touches no qbmgrad code, a change to the program cannot move it.

The kernel mixes what the workloads spend time on: interpreter work, a small
LAPACK eigendecomposition, a BLAS matrix product, and filling freshly
allocated memory.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

# median kernel time on the 2-vCPU Xeon VM the baseline was measured on;
# scaled times are seconds at that machine's typical speed
NOMINAL_S = 1.8e-3
SHARE = 0.04  # kernel time per step, as a share of the step's wall time
MIN_REPEATS, MAX_REPEATS = 3, 50


class Reference:
    def __init__(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(48, 48)) + 1j * rng.normal(size=(48, 48))
        self._herm = a + a.conj().T
        self._mat = rng.normal(size=(128, 128)) + 1j * rng.normal(size=(128, 128))
        self.samples: list[float] = []
        self.seconds(MIN_REPEATS)  # first call pays for LAPACK/BLAS start-up

    def _once(self) -> float:
        start = time.perf_counter()
        counts: dict[int, int] = {}
        for i in range(2000):
            counts[i % 97] = counts.get(i % 97, 0) + i
        np.linalg.eigh(self._herm)
        self._mat @ self._mat
        buf = np.empty(1 << 18, dtype=complex)  # 4 MiB of fresh pages
        buf.fill(1.0)
        buf.sum()
        return time.perf_counter() - start

    def seconds(self, repeats: int) -> float:
        """Median kernel time now; also kept in ``samples``.  The first run
        after other work is slower (cold caches, idle BLAS threads) and is
        dropped, so the median does not depend on the repeat count."""
        self._once()
        t = statistics.median(self._once() for _ in range(repeats))
        self.samples.append(t)
        return t

    def scale(self, step_s: float) -> float:
        """Factor that turns the wall seconds of a step that just took
        ``step_s`` into nominal seconds; longer steps get more repeats."""
        repeats = round(SHARE * step_s / self.samples[-1])
        return NOMINAL_S / self.seconds(min(max(repeats, MIN_REPEATS), MAX_REPEATS))
