"""Machine-speed probe, so timings read in seconds at one reference speed.

A shared 2-core virtual machine was seen to change speed by up to 1.8x for
seconds to minutes at a time, and a process's CPU time slowed with its wall
time, so no raw timing repeated from one run to the next.  A fixed
pure-Python kernel of the benchmark's own (dict, tuple, integer and
``Fraction`` work, as in greenfan) is timed right before and right after
every measured operation.  The operation's seconds are then scaled by
``REF_S`` over the mean of the two probes: its duration at the speed where
the kernel takes ``REF_S``.  The kernel never calls greenfan, so a change to
greenfan cannot move it.  Raw seconds stay in the run record.
"""

from __future__ import annotations

import time
from fractions import Fraction
from statistics import median

REF_S = 0.002  # the kernel's duration at the reference speed
PROBE_REPEATS = 5


def kernel():
    table = {}
    total = 0
    acc = Fraction(0)
    for i in range(4000):
        key = (i % 97, i % 13, i)
        table[key] = table.get(key, 0) + i
        total += i * i % 7
        if i % 40 == 0:
            acc += Fraction(i, 7 + i % 5)
    return total, len(table), acc


def probe() -> float:
    """Median seconds of PROBE_REPEATS kernel runs."""
    samples = []
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        kernel()
        samples.append(time.perf_counter() - start)
    return median(samples)


class Scaler:
    """Times calls and scales their seconds to the reference speed.

    The probe after one call serves as the probe before the next, so a
    sequence of n calls costs n + 1 probes.
    """

    def __init__(self):
        self.probes: list[float] = []
        self._last = None

    def probe(self) -> float:
        self._last = probe()
        self.probes.append(self._last)
        return self._last

    def time(self, fn, *args, **kwargs):
        """Returns (result, raw seconds, seconds at the reference speed)."""
        before = self.probe() if self._last is None else self._last
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        raw = time.perf_counter() - start
        after = self.probe()
        return result, raw, raw * REF_S * 2.0 / (before + after)

    def factor(self) -> float:
        """REF_S over the median probe so far: scales a span of the whole sequence."""
        return REF_S / median(self.probes)
