"""The tail percentile the benchmark reports next to the median, and the
reference computation that gauges the machine's speed."""
from __future__ import annotations

import math
import signal
import statistics
import time
from fractions import Fraction
from typing import Callable, TypeVar

T = TypeVar("T")

# Candidate percentiles for the tail, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# A tail percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def nearest_rank(sorted_xs: list[float], p: float) -> float:
    """The p-th percentile of sorted samples by the nearest-rank rule."""
    if not sorted_xs:
        raise ValueError("no samples")
    rank = max(1, math.ceil(p / 100 * len(sorted_xs)))
    return sorted_xs[rank - 1]


def tail(samples: list[float], min_beyond: int = MIN_BEYOND,
         ) -> tuple[float, float, int] | None:
    """Highest ladder percentile with at least min_beyond samples above it.

    Returns (percentile, value, samples beyond), or None when even the
    median has fewer than min_beyond samples above it.
    """
    xs = sorted(samples)
    for p in TAIL_LADDER:
        value = nearest_rank(xs, p)
        beyond = sum(1 for x in xs if x > value)
        if beyond >= min_beyond:
            return p, value, beyond
    return None

# Seconds the reference computation takes at the reference speed: about
# its median on the machine where baseline.json was recorded.  Reported
# times are scaled to this speed.
REFERENCE_S = 0.0035
# Seconds between reference computations while a job runs.
PROBE_PERIOD = 0.1


def reference_work(n: int = 10, repeat: int = 1) -> Fraction:
    """A fixed exact-rational computation that uses no qkrall code: the
    determinant of an n x n rational matrix by fraction elimination,
    `repeat` times.  Its time tracks the speed the machine gives the run."""
    for _ in range(repeat):
        rows = [[Fraction(i * j + 1, i + 2 * j + 3) + (i == j)
                 for j in range(n)] for i in range(n)]
        det = Fraction(1)
        for c in range(n):
            det *= rows[c][c]
            inv = 1 / rows[c][c]
            for r in range(c + 1, n):
                f = rows[r][c] * inv
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    return det


class SpeedGauge:
    """Times reference_work just before and just after a call and, when
    `period` is set, every `period` seconds while the call runs, from a
    SIGALRM handler.  The samples during the call gauge the machine's speed
    over the whole of a long call, not only at its ends."""

    def __init__(self, period: float | None = PROBE_PERIOD):
        self.period = period
        self.samples: list[float] = []
        self.spent = 0.0
        self.active = False
        if period:
            # Left installed: a signal that arrives after a call ends only
            # finds the gauge inactive.
            signal.signal(signal.SIGALRM, self._on_alarm)

    def _probe(self) -> float:
        started = time.perf_counter()
        reference_work()
        took = time.perf_counter() - started
        self.samples.append(took)
        return took

    def _on_alarm(self, signum, frame) -> None:
        if self.active:
            self.active = False  # no nested probe if the next alarm is due
            self.spent += self._probe()
            self.active = True

    def time(self, fn: Callable[[], T]) -> tuple[T, float, float]:
        """(fn's result, fn's seconds without the probes during it, the
        reference's seconds at the mean speed of all the samples)."""
        self.samples = []
        self.spent = 0.0
        self._probe()
        if self.period:
            self.active = True
            signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        started = time.perf_counter()
        try:
            result = fn()
        finally:
            elapsed = time.perf_counter() - started
            if self.period:
                signal.setitimer(signal.ITIMER_REAL, 0)
                self.active = False
        self._probe()
        speed = statistics.fmean(1 / s for s in self.samples)
        return result, elapsed - self.spent, 1 / speed
