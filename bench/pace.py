"""Host-speed normalisation: seconds as the reference machine would read them.

The benchmark shares a few cores with other tenants, whose load makes the
same pure-Python work run a third slower or faster from one few-second
stretch to the next, and up to twice as fast from one hour to the next.
Timings taken raw spread by that much between runs.  A ``Pacer`` therefore
interrupts the measured work every ``INTERVAL`` seconds to time a fixed
calibration loop of about 7 ms, and gives each stretch of work between two
calibrations the weight ``REF_LOOP_S / loop time``, interpolated linearly
between the two.  A measured interval is reported as the sum of its
weighted stretches: the seconds it would have taken at the reference speed,
which is this loop's median time on the reference machine (2-vCPU x86-64,
CPython 3.11).  The time spent in the calibration loop itself is left out of
the work clock, so it is in no measured interval.

A change that makes the program faster lowers the weighted time just as it
lowers the raw time; only the host's drift cancels.  The raw times are
reported next to the weighted ones in the traced run.
"""

from __future__ import annotations

import array
import bisect
import time

INTERVAL = 0.1  # seconds of work between two calibrations
LOOP_N = 5000  # iterations of the calibration loop, about 7 ms at the reference speed
REF_LOOP_S = 0.0074  # median loop time on the reference machine
TABLE_BITS = 20  # the loop reads a 4 MiB table at random, to feel the host's cache contention


def make_table():
    return array.array("I", range(1 << TABLE_BITS))


def _loop(n: int, table) -> int:
    """Tuple-keyed dict updates, bytes slicing, set inserts and scattered reads, like the solver."""
    counts = {}
    seen = set()
    w = b""
    j = 0
    mask = len(table) - 1
    for i in range(n):
        key = (i & 255, i >> 5)
        counts[key] = counts.get(key, 0) + 1
        w = (w + bytes((i & 3,)))[-6:]
        seen.add(w)
        j = (j * 1103515245 + 12345 + table[j]) & mask
    return len(counts) + len(seen) + j


def loop_seconds(table) -> float:
    t0 = time.perf_counter()
    _loop(LOOP_N, table)
    return time.perf_counter() - t0


class Pacer:
    """A work clock with calibration pauses left out, and host-speed weights along it."""

    def __init__(self, interval: float = INTERVAL):
        self.interval = interval
        self._table = make_table()
        self.paused = 0.0  # raw seconds spent calibrating so far
        self.due = 0.0  # raw clock reading at which the next calibration is due
        self._at = []  # work clock of each calibration
        self._weight = []  # REF_LOOP_S / loop time, at each calibration
        self._cum = []  # weighted seconds from the first calibration to each one

    def work_clock(self) -> float:
        return time.perf_counter() - self.paused

    def calibrate(self) -> None:
        t0 = time.perf_counter()
        weight = REF_LOOP_S / loop_seconds(self._table)
        at = t0 - self.paused
        if self._at:
            span = at - self._at[-1]
            self._cum.append(self._cum[-1] + span * (self._weight[-1] + weight) / 2)
        else:
            self._cum.append(0.0)
        self._at.append(at)
        self._weight.append(weight)
        t1 = time.perf_counter()
        self.paused += t1 - t0
        self.due = t1 + self.interval

    def tick(self) -> None:
        """Calibrate if the interval has passed; cheap enough to call per solver step."""
        if time.perf_counter() >= self.due:
            self.calibrate()

    def _weighted(self, w: float) -> float:
        """Weighted seconds from the first calibration to work clock reading w."""
        at, weight, cum = self._at, self._weight, self._cum
        i = bisect.bisect_right(at, w) - 1
        if i < 0:
            return (w - at[0]) * weight[0]
        if i == len(at) - 1:
            return cum[i] + (w - at[i]) * weight[i]
        frac = (w - at[i]) / (at[i + 1] - at[i])
        w_here = weight[i] + frac * (weight[i + 1] - weight[i])
        return cum[i] + (w - at[i]) * (weight[i] + w_here) / 2

    def ref_seconds(self, start: float, end: float) -> float:
        """Reference-speed seconds between two work clock readings."""
        return self._weighted(end) - self._weighted(start)

    def median_weight(self) -> float:
        ordered = sorted(self._weight)
        return ordered[len(ordered) // 2]


def paced(owner, attr: str, pacer: Pacer):
    """Let the pacer calibrate before each call of ``owner.attr``; return the undo.

    ``owner`` is a module or a class of the library.  The wrapper costs one
    clock read per call, and reaches inside calls that run for seconds
    (a solve, an enumeration) through a function they call often.  If the
    library no longer has ``owner.attr``, nothing is wrapped and the pacer
    calibrates only where it is called directly.
    """
    original = vars(owner).get(attr)
    if original is None:
        return lambda: None
    tick = pacer.tick

    def wrapper(*args, **kwargs):
        tick()
        return original(*args, **kwargs)

    setattr(owner, attr, wrapper)
    return lambda: setattr(owner, attr, original)
