"""Correct timings for the host's momentary speed.

The benchmark runs on shared machines whose speed drifts: for seconds at
a time a fixed Python loop can take 1.6 times as long as usual.  Raw
pass times then spread by 10-25% between runs, which hides the changes
the benchmark is meant to catch.  The drift belongs to one CPU: a loop
timed on the other CPU of a 2-core host does not follow it.  So the
benchmark pins itself, and every process it starts, to one CPU, and a
probe process on that CPU runs a short fixed loop (the calibration
loop) every 50 ms.  A timed interval's corrected time is its measured
time, less the probe's loops that ran inside it, multiplied by the mean
of REF_S / (loop time) over the samples taken while it ran.  It reads as
the interval's time on a host where the loop takes REF_S.

The probe is its own process with its own heap, so the program under
test cannot slow the loop through the allocator; NOTES.md records a
control run with a cache-heavy slowdown.  Raw times are reported beside
the corrected ones.

    python3 perfbench/speed.py    # the probe; SpeedProbe starts it

The probe samples until its stdin is closed, then prints one
`start seconds` line per sample (perf_counter, which is system-wide).
"""

from __future__ import annotations

import bisect
import gc
import os
import select
import subprocess
import sys
from time import perf_counter

CAL_ITERS = 2500
# Calibration loop time on a quiet 2-core x86-64 host with CPython 3.11.
REF_S = 350e-6
SAMPLE_EVERY_S = 0.05


def calibrate() -> float:
    """Seconds taken by the fixed calibration loop.

    The loop builds tuples, lists and a dict, as qramsey does.  On the
    tuning host it tracked the workloads' slow-downs better than a loop
    of integer arithmetic.
    """
    # a collection here would time the collector, not the host
    gc.disable()
    start = perf_counter()
    table = {}
    for i in range(CAL_ITERS):
        key = (i & 255, i >> 8)
        table[key] = [key, i]
    elapsed = perf_counter() - start
    gc.enable()
    return elapsed


def pin_to_one_cpu() -> None:
    """Pin this process, and the processes it starts, to one CPU."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class SpeedProbe:
    """The probe process, as a context manager; samples are read on exit."""

    def __init__(self):
        self.times: list[float] = []      # sample start, perf_counter
        self.durations: list[float] = []
        self._proc: subprocess.Popen | None = None

    def __enter__(self) -> SpeedProbe:
        self._proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        return self

    def __exit__(self, *exc) -> None:
        out, _ = self._proc.communicate(timeout=30)
        for line in out.splitlines():
            start, seconds = line.split()
            self.times.append(float(start))
            self.durations.append(float(seconds))

    def corrected(self, start: float, elapsed: float) -> float:
        """Corrected seconds for an interval measured as (start, elapsed)."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, start + elapsed)
        inside = self.durations[lo:hi]
        own = elapsed - sum(inside)
        if not inside:
            # no sample fell inside a short interval: use its neighbours
            inside = self.durations[max(lo - 1, 0):lo + 1]
            if not inside:
                raise RuntimeError("the speed probe took no samples")
        return own * sum(REF_S / d for d in inside) / len(inside)


def _probe() -> None:
    times, durations = [], []
    while True:
        times.append(perf_counter())
        durations.append(calibrate())
        ready, _, _ = select.select([sys.stdin], [], [], SAMPLE_EVERY_S)
        if ready:                         # stdin closed: the run is over
            break
    print("\n".join(f"{t!r} {d!r}" for t, d in zip(times, durations)))


if __name__ == "__main__":
    _probe()
