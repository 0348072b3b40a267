"""The machine's own speed, measured beside the workload.

The benchmark runs on shared virtual machines whose speed swings by up to
2x, over seconds and over whole minutes, because other guests load the
same host.  Steal time does not show it: process CPU time slows down as
much as wall time.  So the runner interleaves a fixed probe with the jobs
and scales every reported time by how fast the probe ran meanwhile.

The probe is work of the library's kind that does not use the library:
exact Gaussian elimination and polynomial arithmetic over
`fractions.Fraction`, on fixed inputs.  A change to the library cannot
make it faster or slower.  REFERENCE_S is what the probe takes when the
machine runs at its reference speed; a scaled time reads as the time the
job would take at that speed.
"""

from __future__ import annotations

import bisect
import statistics
import time
from fractions import Fraction

# median probe time on a 2-vCPU x86-64 VM with Python 3.11 in a fast stretch
REFERENCE_S = 0.0017

_MATRIX = [[Fraction((3 * i * i + 5 * j + i * j) % 11 - 5, 1 + (i + 2 * j) % 4)
            for j in range(8)] for i in range(7)]
_POLY_A = [Fraction(k * k - 3, k + 1) for k in range(9)]
_POLY_B = [Fraction(2 * k - 7, k % 3 + 1) for k in range(7)]


def _rank(rows) -> int:
    rows = [list(r) for r in rows]
    rank, col, ncols = 0, 0, len(rows[0])
    while rank < len(rows) and col < ncols:
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    return rank


def _pmul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _prem(a, b):
    a = list(a)
    while len(a) >= len(b):
        f = a[-1] / b[-1]
        shift = len(a) - len(b)
        for k, y in enumerate(b):
            a[shift + k] -= f * y
        a.pop()
        while a and not a[-1]:
            a.pop()
    return a


def probe() -> float:
    """Seconds the fixed probe takes now."""
    started = time.perf_counter()
    assert _rank(_MATRIX) == 7
    product = _pmul(_POLY_A, _POLY_B)
    assert not _prem(product, _POLY_B)
    return time.perf_counter() - started


class SpeedMeter:
    """Probe samples taken while a run goes on, at least `every` seconds
    apart, and the slowdown they show around any stretch of the run.

    The machine's speed changes within seconds, so a job's time is scaled
    by the probes taken close to it, not by the median of the whole run."""

    def __init__(self, every: float):
        self.every = every
        self.times: list[float] = []  # when each sample ended
        self.samples: list[float] = []
        self.spent = 0.0
        self._last = float("-inf")

    def sample(self, count: int = 1) -> None:
        started = time.perf_counter()
        for _ in range(count):
            self.samples.append(probe())
            self.times.append(time.perf_counter())
        self._last = self.times[-1]
        self.spent += self._last - started

    def tick(self) -> None:
        """Take a sample if the last one is `every` seconds old."""
        if time.perf_counter() - self._last >= self.every:
            self.sample()

    def around(self, start: float, end: float, margin: float) -> float:
        """Slowdown from the samples taken within `margin` seconds of the
        stretch from `start` to `end`, or else from the nearest sample on
        each side of it."""
        lo = bisect.bisect_left(self.times, start - margin)
        hi = bisect.bisect_right(self.times, end + margin)
        if lo == hi:
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.times))
        return slowdown(self.samples[lo:hi])


def slowdown(samples: list[float]) -> float:
    """How much slower than its reference speed the machine ran while
    these probe samples were taken: their median over REFERENCE_S."""
    return statistics.median(samples) / REFERENCE_S
