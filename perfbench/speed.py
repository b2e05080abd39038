"""Machine-speed probe: rescales wall times to a reference CPU speed.

On a shared virtual machine the CPU's speed drifts by tens of percent over
seconds to minutes (neighbours on the same core, frequency changes), more
than the changes the benchmark must resolve. Between measured stretches,
never during one, the benchmark runs a burst of a fixed probe, a short loop
of interpreted integer arithmetic, and keeps the median duration of the
burst's loops. An operation runs a burst before it and one after each of
its phases, and each phase is reported as

    wall seconds * REFERENCE_S / mean of the probe medians of the bursts
                                 just before and just after the phase,

that is, the wall time the phase would take at the speed where the probe
takes REFERENCE_S; an operation's total is the sum of its phases. Bursts
next to a phase tracked it better than the mean of all the operation's
bursts: the speed changes within an operation.

The probe runs only while pclabel is idle, so pclabel's own CPU use,
threads or processes included, never changes the divisor, and a faster
pclabel shows in full, no more and no less. Probes that also parse text or
allocate arrays tracked the pipeline worse: their cost depends on the cache
state the stretch before leaves behind.
"""

from __future__ import annotations

import bisect
import statistics
import time

BURST_S = 0.1
# The probe's duration at the reference speed: about its fast-phase median
# on a 2-vCPU virtual machine under Python 3.11.
REFERENCE_S = 2.0e-4


def _loop():
    """Duration of one run of the fixed probe."""
    start = time.perf_counter()
    total = 0
    for i in range(3000):
        total += i * i
    return time.perf_counter() - start


class Clock:
    """Probe bursts taken between measured stretches, in time order."""

    def __init__(self):
        self.starts = []  # perf_counter at each burst's start
        self.ends = []  # perf_counter at each burst's end
        self.probes = []  # median probe seconds of each burst

    def burst(self):
        """Sample the machine's speed for BURST_S; call only between stretches."""
        start, durations = time.perf_counter(), []
        while time.perf_counter() - start < BURST_S:
            durations.append(_loop())
        self.starts.append(start)
        self.ends.append(time.perf_counter())
        self.probes.append(statistics.median(durations))

    def factor(self, start, end):
        """Multiplier taking wall seconds within (start, end) to reference seconds.

        Uses the bursts from the last one before `start` to the first one
        after `end`.
        """
        first = max(bisect.bisect_right(self.ends, start) - 1, 0)
        last = bisect.bisect_left(self.starts, end) + 1
        near = self.probes[first:last]
        if not near:
            raise ValueError("no probe burst next to the stretch")
        return REFERENCE_S / statistics.fmean(near)

    def seconds(self, intervals):
        """Reference seconds of perf_counter (start, end) intervals, each
        rescaled by the bursts next to it."""
        return sum((end - start) * self.factor(start, end) for start, end in intervals)
