"""Speed probe: rescales a measured time to a fixed reference CPU speed.

On a shared virtual machine the CPU's speed changes by up to 1.8x for
seconds at a time, whatever runs on it: over ten runs per workload the
raw wall time spread by 13-38% (interquartile range over median), the
rescaled time by 2.0-4.4%.  The probe times a fixed integer kernel, which no
change to fermatvol can alter, every INTERVAL_S while a run is measured.
With s_i = REFERENCE_KERNEL_S / (kernel time of sample i), the speed
relative to the reference, a run that took ``wall`` seconds would have
taken about ``wall * mean(s_i)`` at the reference speed.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.025
# kernel time between workload code at full speed on the reference machine
# (2-vCPU Xeon virtual machine, Python 3.11, mpmath's pure-Python backend)
REFERENCE_KERNEL_S = 120e-6


def kernel() -> None:
    """Fixed-point series and big-integer reduction, like mpmath's internals."""
    t, s = 1 << 400, 0
    for n in range(150):
        s += t
        t = t * (7 * n + 1) // (7 * n + 7)
    x = 3 ** 700
    for i in range(60):
        x = (x * 7919 + i) % (10 ** 330 + 7)


def sample() -> float:
    start = time.perf_counter()
    kernel()
    return REFERENCE_KERNEL_S / (time.perf_counter() - start)


class SpeedProbe:
    """Context manager sampling the kernel on SIGALRM; ``speed`` afterwards."""

    def __init__(self):
        self.speeds: list[float] = []
        self._previous = None

    def _on_alarm(self, signum, frame):
        self.speeds.append(sample())

    def __enter__(self) -> "SpeedProbe":
        self.speeds.append(sample())
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.speeds.append(sample())

    @property
    def speed(self) -> float:
        return statistics.fmean(self.speeds)
