"""Host-speed probe: a fixed standard-library loop, timed every 0.2 s.

On a shared host the same pure-Python code runs up to 1.5x slower for
seconds or minutes at a time, because of what other tenants run.  That
drift is no property of liemult, so the benchmark divides it out.  While a
worker runs, a timer signal runs ``reference_loop`` every
PROBE_INTERVAL_S.  It uses exact Fraction arithmetic, like liemult, but no
liemult code, and garbage collection is off while it runs.  Each timing
then has the probe time it contains subtracted, and is scaled by

    factor = REFERENCE_LOOP_S / mean(probe durations in the same worker),

which turns seconds on the host as it was during the run into seconds on
a host where the loop takes REFERENCE_LOOP_S.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

PROBE_INTERVAL_S = 0.2
# Duration of reference_loop on an unloaded core of the 2-core x86-64
# host (CPython 3.11) on which the benchmark's baseline was recorded.
REFERENCE_LOOP_S = 0.0040


def reference_loop() -> Fraction:
    total = Fraction(0)
    for i in range(1, 1000):
        total += Fraction(1, i % 97 + 1)
    return total


class HostProbe:
    """Runs reference_loop from SIGALRM and keeps its durations."""

    def __init__(self):
        self.durations: list[float] = []
        self.spent = 0.0

    def sample(self, *_signal_args) -> None:
        was_enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        reference_loop()
        took = time.perf_counter() - t0
        if was_enabled:
            gc.enable()
        self.durations.append(took)
        self.spent += took

    def start(self) -> None:
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def factor(self, first: int = 0, last: int | None = None) -> float:
        """Scale for timings made while probes first..last-1 ran."""
        window = self.durations[first:last]
        return REFERENCE_LOOP_S * len(window) / sum(window)
