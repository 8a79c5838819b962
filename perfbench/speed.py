"""Machine-speed probe.

The benchmark runs on shared machines whose speed swings by up to about
1.9x for seconds to minutes at a time (other tenants on the same cores), so
raw op times of the same code differ by that much from run to run.  The
probe times a fixed piece of pure-Python work (`reference`), interleaved
with the ops, and every time the benchmark reports is scaled by
NOMINAL_S / (current reference time): it reads as the time on a machine
where `reference` takes NOMINAL_S.  The reference is benchmark code, so a
change to `tq` cannot move it.
"""

from __future__ import annotations

import statistics
import time
from collections import deque
from fractions import Fraction

# `reference` took 0.41-0.76 ms on a 2-CPU x86-64 container with CPython
# 3.11.7, depending on the load of other tenants.
NOMINAL_S = 0.0005
EVERY_S = 0.02
WINDOW = 3


def reference():
    """Fixed work of the kind `tq` does: Fraction arithmetic and small
    tuples, dicts and strings."""
    acc = Fraction(0)
    table = {}
    for k in range(1, 120):
        acc += Fraction(k % 7 + 1, k)
        table[(k, k % 5)] = [k, str(k)]
    return acc, len(table)


def time_reference() -> float:
    t0 = time.perf_counter()
    reference()
    return time.perf_counter() - t0


class SpeedProbe:
    """Samples `reference` at most every EVERY_S seconds; `scale()` is
    NOMINAL_S over the median of the last WINDOW samples."""

    def __init__(self):
        self.recent: deque[float] = deque(maxlen=WINDOW)
        self.samples: list[float] = []
        self._last = float("-inf")

    def sample(self, n: int = 1) -> None:
        for _ in range(n):
            dt = time_reference()
            self.recent.append(dt)
            self.samples.append(dt)
        self._last = time.perf_counter()

    def maybe_sample(self) -> None:
        if time.perf_counter() - self._last >= EVERY_S:
            self.sample()

    def scale(self) -> float:
        return NOMINAL_S / statistics.median(self.recent)
