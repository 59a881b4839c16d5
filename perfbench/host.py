"""Host-speed correction for timings taken on a shared machine.

On a shared host the speed of one vCPU drifts by tens of percent over tens of
seconds, with CPU time drifting just as wall time does, so run-to-run spread
is set by the neighbours rather than by the library. A fixed piece of
interpreter work, the probe, runs between operations; a timing is scaled by
REF_NS over the median of the probes around it. The result reads as
the time the same work takes on this machine when the probe takes REF_NS.
Raw times are kept next to the scaled ones in the run's output files.

The probe is benchmark code that no library change touches. A change that
left work running in the background of the process would slow the probe as
much as the library, and so would not show in scaled times; the raw times
would show it.
"""

from __future__ import annotations

import statistics
import time

REF_NS = 2_000_000


def probe() -> int:
    """ns for a fixed mix of tuple, dict and integer work and of string
    formatting and joining, the kinds of work the library does (~2 ms)."""
    t0 = time.perf_counter_ns()
    d: dict = {}
    for i in range(1500):
        t = (i % 7, i % 11, i % 13)
        d[t] = d.get(t, 0) + i * 3
    "\n".join([f'<line x1="{i}" y1="{i * 3}" stroke="blue"/>' for i in range(3000)])
    return time.perf_counter_ns() - t0


class Meter:
    """Probes between timed intervals.

    ``mark()`` probes and closes an interval; ``scale(k)`` is REF_NS over the
    median of the probes taken from NEAR_NS before interval k to NEAR_NS after
    it. Short intervals so get several probes, and one probe that the host
    happened to preempt does not set their scale alone; a long interval gets
    the two probes at its ends.
    """

    NEAR_NS = 500_000_000

    def __init__(self):
        self.probes = [(time.perf_counter_ns(), probe())]

    def mark(self) -> int:
        """Probe now and return the number of the interval that just ended."""
        self.probes.append((time.perf_counter_ns(), probe()))
        return len(self.probes) - 2

    def scale(self, k: int) -> float:
        lo = self.probes[k][0] - self.NEAR_NS
        hi = self.probes[k + 1][0] + self.NEAR_NS
        return REF_NS / statistics.median(ns for t, ns in self.probes if lo <= t <= hi)
