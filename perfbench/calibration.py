"""Machine-speed calibration: a fixed kernel timed between the timed units.

The machine this benchmark was built on (2 vCPUs under KVM, shared host)
changes speed by 20-30 % over tens of seconds.  Ten desk train processes in a
row read raw step medians from 258 ms to 387 ms.  The kernel below changes
speed with such work: the step time divided by the kernel time stayed within
1.5 % across four processes while the raw step time moved 26 %.

So every timing is also reported at a reference speed: the raw time times
REF_KERNEL_MS over the kernel time measured around it.  The kernel uses no
mdtaf code and allocates nothing, so a change to the program cannot change the
kernel's work; raw times are printed beside the reference-speed ones.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

# Kernel time on this machine in a quiet period; the unit of the reference speed.
REF_KERNEL_MS = 3.5


class Calibrator:
    def __init__(self, repeats: int = 3, clock=time.perf_counter):
        rng = np.random.default_rng(0)
        self._mat = rng.random((256, 256), dtype=np.float32)
        self._vec = rng.random(200_000, dtype=np.float32)
        # preallocated outputs: the kernel must not depend on the allocator's state,
        # which the program's own allocations shape
        self._mat_out = np.empty_like(self._mat)
        self._vec_out = np.empty_like(self._vec)
        self.repeats = repeats
        self.clock = clock
        self.starts: list[float] = []
        self.kernel_ms: list[float] = []
        self.spent_s = 0.0

    def _kernel(self) -> float:
        """Interpreter loop, small BLAS products and elementwise numpy, in ms."""
        t0 = self.clock()
        acc = 0
        for i in range(20000):
            acc += i * i
        for _ in range(4):
            np.matmul(self._mat, self._mat, out=self._mat_out)
        for _ in range(10):
            np.multiply(self._vec, 1.0001, out=self._vec_out)
            np.tanh(self._vec_out, out=self._vec_out)
        return (self.clock() - t0) * 1e3

    def sample(self):
        """Time the kernel and remember when.  The fastest of ``repeats`` runs:
        a stall on the host only ever slows a run, and one stall lasted 150 ms."""
        t0 = self.clock()
        ms = min(self._kernel() for _ in range(self.repeats))
        self.record(t0, ms)
        self.spent_s += self.clock() - t0

    def record(self, start: float, kernel_ms: float):
        self.starts.append(start)
        self.kernel_ms.append(kernel_ms)

    def factor(self, start: float, end: float) -> float:
        """REF_KERNEL_MS over the mean kernel time of the last sample started
        at or before ``start`` and the first started at or after ``end``."""
        before = bisect.bisect_right(self.starts, start) - 1
        after = bisect.bisect_left(self.starts, end)
        picks = [self.kernel_ms[k] for k in (before, after) if 0 <= k < len(self.starts)]
        if not picks:
            raise ValueError("no calibration sample")
        return REF_KERNEL_MS / statistics.fmean(picks)

    def run_factor(self, since: float = float("-inf")) -> float:
        """REF_KERNEL_MS over the median kernel time of the samples since a time."""
        picks = [ms for s, ms in zip(self.starts, self.kernel_ms) if s >= since]
        return REF_KERNEL_MS / statistics.median(picks)
