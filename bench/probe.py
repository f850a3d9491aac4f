"""A CPU-speed probe that runs inside the measured process.

On a shared VM the speed of a vCPU changes with the load of other tenants:
on a 2-vCPU Xeon VM the same Python loop takes 28 ms or 50 ms, switching
every second or so, with no stolen time reported and no gaps in execution.
Raw wall times of one workload then spread by 10-30 % between runs of the
same code.  A timer signal runs a short fixed loop every 50 ms between the
bytecodes of the measured program; each stretch of work is divided by the
loop time measured at its end, which expresses the work in probe units,
and the host's speed changes cancel out of it.  Over seven runs of
linear-ode the spread (IQR / median) was 16 % in raw seconds, 6 % with a
pure-Python loop as the probe and 3 % with this one.
"""
from __future__ import annotations

import bisect
import signal
import time

import numpy as np

INTERVAL_S = 0.05
_X = np.linspace(0.0, 1.0, 64)
_Y = np.empty(64)


def _loop_time() -> float:
    """Numpy calls on a small array with interpreted glue between them, the
    mix the workloads are made of."""
    t0 = time.perf_counter()
    x = 0.5
    for i in range(40):
        np.multiply(_X, x, out=_Y)
        x = 0.5 * x + float(_Y[i]) * 1e-3
    return time.perf_counter() - t0


class Probe:
    """Context manager: samples the probe loop on a wall-clock timer."""

    def __init__(self):
        self.starts = []
        self.durations = []
        self._previous = None

    def _sample(self, signum=None, frame=None):
        self.starts.append(time.perf_counter())
        self.durations.append(_loop_time())

    def __enter__(self):
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def units(self, t0: float, t1: float) -> tuple:
        """(work in probe units, seconds spent probing) over [t0, t1].

        Work up to each sample is divided by that sample's loop time; the
        rest after the last sample, by the latest sample before t1.
        """
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        work, probing, last = 0.0, 0.0, t0
        for start, dur in zip(self.starts[lo:hi], self.durations[lo:hi]):
            work += (start - last) / dur
            probing += dur
            last = start + dur
        work += (t1 - last) / self.durations[max(hi - 1, 0)]
        return work, probing
