"""The host's speed during a run, measured beside the operations.

The benchmark's host shares its cores with other tenants, and the same
work takes up to 1.7 times as long in one minute as in the next; a slow
spell can last a whole run.  CPU time stretches with wall time, so it is
slower cycles, not waiting.  To keep that out of the figures, a run times
a fixed unit of work after each set-up probe and before every operation: a
pure-Python loop, written here and independent of cutkit.  The unit calls
no numpy or BLAS routine, whose threads would keep spinning into the next
operation and add to its CPU time.  The run's slowdown is the median unit
time over REFERENCE_UNIT_S, and run.py divides every time metric by it, so
the metrics read as seconds at the reference speed.  The unit times stay
in the run's record, so the times as measured can be recovered.
"""

from __future__ import annotations

import statistics
import time

# Unit time on the development machine in its fast state (2-vCPU Xeon,
# Python 3.11).
REFERENCE_UNIT_S = 0.003
LOOP = 50_000


class Gauge:
    def __init__(self):
        self.samples = []  # seconds per unit

    def sample(self, units: int = 3):
        for _ in range(units):
            t0 = time.perf_counter()
            s = 0
            for i in range(LOOP):
                s += i * i
            self.samples.append(time.perf_counter() - t0)

    def slowdown(self) -> float:
        return statistics.median(self.samples) / REFERENCE_UNIT_S
