"""Machine-speed reference for scaling timings.

On a small shared machine the speed of one core drifts by 10-35% over
minutes, and every workload drifts with it. A fixed kernel, timed between
operations, drifts the same way. In one test of eight 20 s spectral runs, the
spread of throughput between runs fell from 12% to 4% once it was divided by
the kernel's time.

The kernel is small-array numpy work driven from Python, the same mix as the
package's hot loops. It uses no code of the package, so a change to the
package cannot change the kernel's work.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Time of one kernel() call on a 2-vCPU Xeon at 2.1 GHz. Scaled timings are
# seconds on a machine that runs the kernel in exactly this time.
NOMINAL_S = 4.0e-4
INTERVAL_S = 0.25  # least time between two samples


def kernel() -> np.ndarray:
    """40 plane rotations of a 6x6 complex matrix, column by column."""
    a = (np.arange(36) * (1.0 + 0.5j)).reshape(6, 6)
    for i in range(40):
        p, q = i % 6, (i + 1) % 6
        cp = a[:, p].copy()
        cq = a[:, q].copy()
        a[:, p] = 0.8 * cp + 0.6 * cq
        a[:, q] = -0.6 * cp + 0.8 * cq
    return a


class Reference:
    """Kernel times sampled through a run, at most one per INTERVAL_S."""

    def __init__(self):
        kernel()  # warm-up, not a sample
        self.samples: list[float] = []
        self._last = -float("inf")

    def sample(self, force: bool = False) -> None:
        if not force and time.perf_counter() - self._last < INTERVAL_S:
            return
        t0 = time.perf_counter()
        kernel()
        self._last = time.perf_counter()
        self.samples.append(self._last - t0)

    def scale(self) -> float:
        """Factor that turns measured seconds into nominal seconds."""
        return NOMINAL_S / statistics.fmean(self.samples)
