"""A gauge of the machine's current speed, sampled from a timer signal.

Shared small machines change speed under the benchmark: on a 2-vCPU Xeon
virtual machine (numpy 2.4.6, OpenBLAS 0.3.31), identical work took 38 ms or
65 ms depending on the moment, CPU time swinging with wall time, in states
that last from a fraction of a second to tens of seconds.  While a :class:`Gauge`
is active, a timer signal interrupts the program every ``PERIOD_S`` and times
:func:`sample`, a fixed plain-numpy task with posmap's mix of small LAPACK
calls, einsum and interpreter work.  An interval of wall or CPU time is then
reported at the gauge's nominal speed: multiplied by ``NOMINAL_S`` over the
mean sample time around it.  The gauge runs no posmap code, so a change to
posmap moves normalized times exactly as it moves raw ones.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

# fast-state time of `sample` on that machine (its 10th percentile over 2000
# calls), so normalized times read as seconds on it when it is quiet
NOMINAL_S = 5.6e-4
PERIOD_S = 0.1
WINDOW_S = 0.5

_H4 = ((np.arange(81) % 7) - 3.0).reshape(3, 3, 3, 3) * (1 + 0.3j)


def sample() -> float:
    """Wall seconds of one fixed task of about a millisecond."""
    t0 = time.perf_counter()
    iso = np.eye(3, 2, dtype=complex)
    for i in range(12):
        c = np.einsum("ak,iajb,bl->ikjl", iso.conj(), _H4, iso).reshape(6, 6)
        w, v = np.linalg.eigh((c + c.conj().T) / 2)
        u, _, vh = np.linalg.svd(v[:3, :2] + 0.1 * i, full_matrices=False)
        iso = u @ vh
    return time.perf_counter() - t0


class Gauge:
    """Samples :func:`sample` every ``PERIOD_S`` while active (a context
    manager), and converts intervals to nominal-speed seconds."""

    def __init__(self):
        self.times: list[float] = []
        self.durations: list[float] = []
        self.busy = 0.0  # seconds spent sampling; subtracted from measured intervals

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.durations.append(sample())
        self.times.append(t0)
        self.busy += time.perf_counter() - t0

    def __enter__(self) -> "Gauge":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self, start: float, end: float) -> float:
        """NOMINAL_S over the mean sample time within WINDOW_S of [start, end]."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        window = self.durations[lo:hi] or self.durations
        return NOMINAL_S / statistics.fmean(window)
