"""Machine-speed probe timed alongside the workload.

The vCPUs this benchmark was written on change speed by up to a third over
a few seconds, for every kind of work at once. A fixed kernel that mixes a
small matrix product, a sort and a Python loop tracks that speed; dividing
an operation's time by the probe time measured around it removes most of
the drift. `calibrated = raw * REFERENCE_S / probe`, where probe is the median
of the samples taken within WINDOW_S of the operation, so a calibrated
millisecond is a millisecond on a machine where one probe takes REFERENCE_S.
The probe uses numpy and Python only, never cfedit, so a change to cfedit
cannot move it.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

REFERENCE_S = 0.0004  # probe time on a 2.1 GHz Xeon vCPU, BLAS pinned to one thread
EVERY_S = 0.05  # at most this long between probes
WINDOW_S = 0.15  # samples this close to an operation calibrate it


class Probe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.a = rng.random((160, 160))
        self.b = rng.random((160, 160))
        self.v = rng.random(20000)
        self.times = []  # when each sample was taken
        self.samples = []  # best-of-3 probe time, seconds
        self._once()  # pays one-off costs, not recorded
        self()

    def _once(self) -> float:
        t0 = time.perf_counter()
        self.a @ self.b
        np.sort(self.v)
        sum(range(2000))
        return time.perf_counter() - t0

    def __call__(self):
        self.samples.append(min(self._once() for _ in range(3)))
        self.times.append(time.perf_counter())

    def due(self) -> bool:
        return time.perf_counter() - self.times[-1] >= EVERY_S

    def scale(self, start: float, end: float) -> float:
        """Factor that calibrates an operation that ran from `start` to `end`."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        return REFERENCE_S / statistics.median(self.samples[lo:hi])
