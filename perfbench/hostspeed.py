"""Host-speed scaling of the end-to-end timings.

The machines this benchmark runs on are shared, and their speed drifts:
on the development machine the same limit_words round took 9.6 s in one
run and 6.3 s in a run two minutes later, with the same code and inputs.
A fixed slice of interpreter work (small integers, tuples and a dict) is
timed about once a second between operations, so a run of 36 s takes some
40 slices.  Each time a run reports is its wall time, without the slices,
times REF_SLICE_S over the mean slice time of the whole run: the seconds
the work would take on a host where the slice takes REF_SLICE_S.  The
mean is taken over the run because single slices jitter by tens of
percent from one second to the next.  The slice is independent of
qgauss, so a change to the program moves the scaled time as much as the
wall time.
"""

from __future__ import annotations

import gc
import statistics
import time

#: A typical slice time on the development machine; it sets the scale of
#: the reported seconds and nothing else.
REF_SLICE_S = 0.018
#: Least wall time between two slices taken between operations.
EVERY_S = 1.0

_TABLE = {(i, i % 7): i for i in range(4096)}


def _slice() -> int:
    table = _TABLE
    acc = 0
    for i in range(40000):
        acc += table.get((i & 4095, i % 7), i) * 3 + (i ^ acc) % 11
    return acc


class HostClock:
    """Times slices between operations and scales a run's times by them."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self._last = time.perf_counter()

    def sample(self):
        # a collection started by the slice would time the program's heap
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            _slice()
            dt = time.perf_counter() - t0
        finally:
            if enabled:
                gc.enable()
        self.samples.append(dt)
        self.spent += dt
        self._last = time.perf_counter()

    def maybe_sample(self):
        if time.perf_counter() - self._last >= EVERY_S:
            self.sample()

    def measure(self, fn, *args):
        """fn(*args) and its wall seconds without the slices taken inside
        it; a slice is taken just before and just after it."""
        self.sample()
        spent = self.spent
        t0 = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - t0 - (self.spent - spent)
        self.sample()
        return result, wall

    def scale(self) -> float:
        """REF_SLICE_S over the mean slice time of the run."""
        return REF_SLICE_S / statistics.fmean(self.samples)
