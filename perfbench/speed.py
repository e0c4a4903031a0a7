"""Time a stretch of work at a fixed reference machine speed.

On a shared host the same pass runs up to twice as fast in one minute as in
the next: the CPU time of the process follows its wall time, so the slowdown
is the core running slower (neighbours on the host), not time taken away
from the process.  To compare runs made minutes apart, a :class:`SpeedProbe`
times a small fixed pure-Python kernel every ``INTERVAL_S`` of CPU time
*during* the work it measures, from a ``SIGPROF`` handler in the main
thread.  The work's wall time, less the time spent in the handler, is then
rescaled by the median kernel time to what it would be on a machine where
one kernel run takes ``REF_KERNEL_S``::

    reference_s = (wall_s - probe time) * REF_KERNEL_S / median kernel time

The handler costs about 0.7 % of the work it samples.  Forked child
processes do not inherit the interval timer, so only this process's speed
is sampled.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

INTERVAL_S = 0.02  # CPU time between two kernel samples
MIN_SAMPLES = 5  # a shorter stretch gets the missing samples right after it
# The reference machine: one kernel run takes 100 us.  On the 2-vCPU Intel
# Xeon VM this was tuned on it took 90 us to 160 us as the host's load moved.
REF_KERNEL_S = 100e-6


def _kernel() -> int:
    s = 0
    for i in range(1500):
        s += i * i % 7
    return s


def _timed_kernel() -> float:
    t0 = perf_counter()
    _kernel()
    return perf_counter() - t0


class SpeedProbe:
    """Context manager: wall time and reference-speed time of its body."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.wall_s = self.program_s = self.kernel_s = self.reference_s = 0.0
        self._probe_s = 0.0

    def _sample(self, signum, frame) -> None:
        t0 = perf_counter()
        self.samples.append(_timed_kernel())
        self._probe_s += perf_counter() - t0

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        self._t0 = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.wall_s = perf_counter() - self._t0
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)
        while len(self.samples) < MIN_SAMPLES:
            self.samples.append(_timed_kernel())
        self.program_s = self.wall_s - self._probe_s
        self.kernel_s = statistics.median(self.samples)
        self.reference_s = self.program_s * REF_KERNEL_S / self.kernel_s
