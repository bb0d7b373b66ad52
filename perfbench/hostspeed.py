"""Host speed, sampled while a pass runs.

On a shared host the speed one Python thread gets can drift by 1.7x within
minutes (measured on a 2-core x86 VM).  A timer interrupts the process
every PERIOD_S of wall time and times one fixed pure-Python Fraction
burst; the mean burst time over a pass, divided by REF_BURST_S, is the
host's slowdown factor for that pass.  Dividing a pass's wall time by it
gives the time at reference speed: over passes taken while that host
drifted, its CV was 1.5 % where the raw wall time's was 9 %.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

PERIOD_S = 0.2
# Mean burst time on an idle 2-core x86 host with CPython 3.11.
REF_BURST_S = 0.0012


def burst() -> Fraction:
    """Fixed reference work: 399 Fraction additions with small denominators."""
    total = Fraction(0)
    for i in range(1, 400):
        total += Fraction(1, i % 97 + 1)
    return total


class HostSpeed:
    """Burst timings; as a context manager, one burst every PERIOD_S.

    The timer uses SIGALRM, so it interrupts the main thread between
    bytecodes and the bursts run on the same core as the timed work.
    """

    def __init__(self):
        self.samples: list[float] = []

    def sample(self, *_signal_args) -> None:
        """Time one burst now."""
        t0 = time.perf_counter()
        burst()
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self) -> "HostSpeed":
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.samples:  # shorter than one period
            self.sample()

    @property
    def spent(self) -> float:
        """Wall time taken by the bursts so far (to subtract from timings)."""
        return sum(self.samples)

    def factor(self) -> float:
        """Slowdown against the reference host (1.0 = reference speed)."""
        return statistics.mean(self.samples) / REF_BURST_S
