"""Machine-speed reference for the benchmark's timings.

The benchmark runs on shared machines whose speed drifts by tens of percent
from one minute to the next, in CPU time as much as in wall time.  A run
therefore also times a fixed piece of reference work, of the same kind as
centrum's inner loops (exact elimination over Fraction and over a prime
field held in a small Python class, and a dense product), and scales every
timing it reports by ``REFERENCE_S / (reference time measured next to it)``.
Reported times are thus "seconds at reference speed": on a machine as fast
as the one ``REFERENCE_S`` was measured on (a shared 2-CPU x86_64 VM,
Python 3.11) they read as wall time, and a drift of the machine moves the
reference work and the verdicts alike and cancels.  The raw wall times are
printed next to them in the run's metadata.

The reference time next to a timing is the mean, not the median, of the
nearest reference timings.  Such a machine also stalls for milliseconds at
a time; a long verdict sums every stall it spans, and only the mean of the
short reference timings counts stalls at the rate they occur.  Five runs of
one grid pool (verdicts of 0.1-1.5 s) spread 3% in verdicts per second
with the mean and 8% with the median, against 27% unscaled.

The reference work shares no code with centrum, so a change to centrum
cannot move it.  The cyclic collector is off while it runs, so the heap a
workload keeps does not either.
"""

from __future__ import annotations

import bisect
import gc
import statistics
from fractions import Fraction
from time import perf_counter

REFERENCE_S = 0.003    # median time of reference_work() on the machine above
TICK_EVERY_S = 0.1     # time the reference at most this often in a loop
NEAREST = 10           # a timing is scaled by the mean of this many ticks
P = 1000003


class _Fp:
    __slots__ = ("v",)

    def __init__(self, v):
        self.v = v % P

    def __add__(self, other):
        return _Fp(self.v + other.v)

    def __sub__(self, other):
        return _Fp(self.v - other.v)

    def __mul__(self, other):
        return _Fp(self.v * other.v)

    def inverse(self):
        return _Fp(pow(self.v, P - 2, P))

    def __bool__(self):
        return self.v != 0


def _eliminate(rows, one):
    """Reduced row echelon form of rows, in place."""
    pivot_row = 0
    for col in range(len(rows[0])):
        pivot = next((i for i in range(pivot_row, len(rows)) if rows[i][col]),
                     None)
        if pivot is None:
            continue
        rows[pivot_row], rows[pivot] = rows[pivot], rows[pivot_row]
        inv = one(rows[pivot_row][col])
        rows[pivot_row] = [x * inv for x in rows[pivot_row]]
        for i, row in enumerate(rows):
            if i != pivot_row and row[col]:
                f = row[col]
                rows[i] = [a - f * b for a, b in zip(row, rows[pivot_row])]
        pivot_row += 1
        if pivot_row == len(rows):
            break
    return rows


def _entries(rows, cols, k):
    return [[(3 * i * i + 5 * j * k + 7 * i * j + k) % 19 - 9
             for j in range(cols)] for i in range(rows)]


def reference_work():
    """One fixed piece of work; returns a checksum of its result."""
    q = [[Fraction(x, 1 + (i + j) % 4) for j, x in enumerate(row)]
         for i, row in enumerate(_entries(6, 9, 1))]
    q = _eliminate(q, lambda x: 1 / x)
    f = [[_Fp(x) for x in row] for row in _entries(9, 12, 2)]
    f = _eliminate(f, _Fp.inverse)
    a = _entries(12, 12, 3)
    b = _entries(12, 12, 4)
    prod = [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]
    return (sum(x.numerator for row in q for x in row)
            + sum(x.v for row in f for x in row) + prod[5][7])


CHECKSUM = reference_work()


def time_reference():
    """Seconds one reference_work() takes now, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        if reference_work() != CHECKSUM:
            raise AssertionError("reference work gave a different result")
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Speedometer:
    """Reference timings taken along a run; scales timings next to them."""

    def __init__(self):
        self.at = []       # midpoint of each reference timing
        self.took = []     # its duration

    def tick(self):
        t0 = perf_counter()
        took = time_reference()
        self.at.append(t0 + took / 2)
        self.took.append(took)

    def maybe_tick(self):
        """Tick unless the last tick was less than TICK_EVERY_S ago."""
        if not self.at or perf_counter() - self.at[-1] >= TICK_EVERY_S:
            self.tick()

    def sample(self, n):
        """n ticks in a row."""
        for _ in range(n):
            self.tick()

    def factor(self, start, end):
        """REFERENCE_S over the mean of the NEAREST ticks whose midpoints
        are nearest the middle of [start, end]."""
        mid = (start + end) / 2
        i = bisect.bisect_left(self.at, mid)
        lo, hi = i, i
        while hi - lo < min(NEAREST, len(self.at)):
            if lo > 0 and (hi == len(self.at)
                           or mid - self.at[lo - 1] <= self.at[hi] - mid):
                lo -= 1
            else:
                hi += 1
        return REFERENCE_S / statistics.fmean(self.took[lo:hi])

    def summary(self):
        took = sorted(self.took)
        return {"reference_ticks": len(took),
                "reference_ms_median": 1000 * statistics.median(took),
                "reference_ms_min": 1000 * took[0],
                "reference_ms_max": 1000 * took[-1]}
