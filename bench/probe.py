"""Host-speed probe: measured times in reference seconds.

The benchmark runs on shared virtual CPUs whose speed drifts by a third
within tens of seconds, which no averaging inside a 20-second run removes:
the same pass, repeated, reads anywhere from 0.8 to 1.5 times its median.
While a measurement runs, SIGALRM fires every PERIOD_S and the handler times
`reference`, a fixed stdlib-only Fraction computation of about a millisecond.
`clock` is perf_counter minus the time spent in the probe, so the probe
never counts toward what it calibrates, and `scale` turns such busy seconds
into reference seconds: the seconds the work takes on a host where
`reference` takes REFERENCE_S. Reference seconds track the package's own cost
and hardly move with the host's speed.
"""

from __future__ import annotations

import signal
from fractions import Fraction
from statistics import fmean
from time import perf_counter

PERIOD_S = 0.05
REFERENCE_S = 0.001


def reference():
    total = Fraction(0)
    for i in range(1, 400):
        total += Fraction(i % 89 + 1, i % 97 + 2)
    return total


class Probe:
    """Context manager sampling the host's speed while a measurement runs."""

    def __init__(self):
        self.spent = 0.0
        self.samples = []
        self._sampling = False
        self._previous = None

    def clock(self):
        """Seconds, not counting the time spent in the probe."""
        return perf_counter() - self.spent

    def _sample(self, signum=None, frame=None):
        if self._sampling:
            return
        self._sampling = True
        start = perf_counter()
        reference()
        elapsed = perf_counter() - start
        self.spent += elapsed
        self.samples.append(elapsed)
        self._sampling = False

    def __enter__(self):
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._sample()  # a measurement shorter than PERIOD_S still gets one
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def scale(self):
        """Reference seconds per busy second over the samples taken."""
        return REFERENCE_S / fmean(self.samples)
