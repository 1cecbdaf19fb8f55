"""The machine's speed, probed while the program runs, to put its times at one speed.

The 2-vCPU virtual machines this benchmark was built on change speed by up
to 2x over seconds to minutes, with no steal time reported: the same atomic
pass took anywhere from 3.1 to 6.2 s within four minutes.  Wall times of
whole runs scatter far more than any bound a regression check could use.
The slowdown hits all pure-Python exact arithmetic alike, so a small fixed
probe of that kind, timed again and again while a job runs, measures the
speed the job ran at.

While a Meter is on, SIGALRM runs the probe every INTERVAL_S of wall time,
between two bytecodes of whatever is running.  Meter.clock() leaves the
probes' time out.  A span's time at reference speed is its clock time
multiplied by REFERENCE_S / (mean probe time over the span, including a
probe at each end): the time it would take on a machine where one probe
takes REFERENCE_S.  On two three-minute traces of repeated passes this cut
the pass-to-pass coefficient of variation from 0.24 to 0.03 (atomic) and
from 0.13 to 0.02 (classical, whose big job alone went from 0.13 to 0.04).

The probe is reference.recurrence_data on fixed laguerre moments: Fraction
arithmetic on growing integers, as in the program, but none of the
program's code, so no change to the program changes the probe.  Garbage
collection is held off during a probe, so the program's heap does not show
up in it.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

import reference

INTERVAL_S = 0.1
REFERENCE_S = 0.0015  # the probe's time at reference speed; about its median here
_MOMENTS = reference.laguerre_moments(Fraction(1, 2), 10)


def probe_s() -> float:
    """Seconds one probe takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        reference.recurrence_data(_MOMENTS, 5)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Meter:
    """Probes on a timer while entered; a clock without the probes in it."""

    def __init__(self):
        self.samples = []
        self.lost_s = 0.0

    def probe(self, *_signal) -> int:
        """Probe now; returns the sample's index."""
        start = time.perf_counter()
        self.samples.append(probe_s())
        self.lost_s += time.perf_counter() - start
        return len(self.samples) - 1

    def clock(self) -> float:
        return time.perf_counter() - self.lost_s

    def factor_since(self, mark: int) -> float:
        """Clock seconds -> seconds at reference speed, for the span since
        the probe `mark`; probes once more to close the span."""
        self.probe()
        return REFERENCE_S / statistics.mean(self.samples[mark:])

    def __enter__(self):
        signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
