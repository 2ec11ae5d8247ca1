"""A clock that counts work at a reference speed, for hosts whose speed drifts.

On a shared host the same single-threaded Python code can run 1.5x slower
for stretches of seconds while a neighbour is busy, which no run length
averages away.  This clock samples the host's current speed every PERIOD
seconds by timing a fixed calibration kernel (interpreter loop plus small
numpy operations, the mix tmnet spends its time in) and advances at the
rate CAL_REF / kernel_time.  Wall time spent at reference speed counts one
to one; wall time spent at half speed counts half.  Time spent in the
sampler itself is not counted.  A slower program still reads slower: the
kernel never runs tmnet code, so only the host's speed cancels.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD = 0.05
# The kernel's duration at reference speed; its median on the machine the
# baseline was recorded on (README.md) is 1.08 ms.
CAL_REF = 1.0e-3


def _kernel() -> float:
    s = 0
    for i in range(7500):
        s += i * i
    x = np.ones(16)
    for _ in range(180):
        x = x * 1.0000001 + 1e-9
    return s + float(x[0])


def kernel_seconds() -> float:
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


class SpeedClock:
    """Reference-speed seconds; start() installs the SIGALRM sampler and
    stop() removes it."""

    def __init__(self):
        self.virtual = 0.0
        self.rate = 1.0
        self.ticks = 0
        self.last = time.perf_counter()
        self.kernel_s: list[float] = []

    def start(self) -> None:
        self.rate = CAL_REF / kernel_seconds()
        self.last = time.perf_counter()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _tick(self, signum, frame) -> None:
        t = time.perf_counter()
        self.kernel_s.append(kernel_seconds())
        # the median of the last five ignores a sample cut short by preemption
        # and smooths sample noise; speed states last seconds, not 0.25 s
        rate = CAL_REF / statistics.median(self.kernel_s[-5:])
        # the interval ran at a speed between the two samples around it
        self.virtual += (t - self.last) * 0.5 * (self.rate + rate)
        self.rate = rate
        self.last = time.perf_counter()
        self.ticks += 1

    def now(self) -> float:
        while True:
            ticks = self.ticks
            value = self.virtual + (time.perf_counter() - self.last) * self.rate
            if ticks == self.ticks:  # no sample landed while reading
                return value
