"""Host-speed calibration for every time the benchmark reports.

The reference numbers come from a 2-core virtual machine (Intel Xeon,
CPython 3.11) whose CPUs are shared with other tenants. There a fixed
pure-Python loop took from 12.7 to 20.4 ms within one minute, and set-up
times doubled between runs minutes apart. The program and the loop below
slow down together: with loop samples taken right around each op, the
op-to-op variation of an eigenfunction build, a root
isolation, an admissibility check and a self-similar solve fell from
16-25% to 10-13%, and the variation of 7 s medians from 15% to 7%.

So each reported time is scaled by NOMINAL_S / (the loop's mean time near
the measurement): it is expressed in seconds of a host that runs the loop in
NOMINAL_S. The loop uses only the standard library, so no change to the
program moves it. Raw wall times are kept in the result file.
"""

from __future__ import annotations

import bisect
import statistics
import time
from fractions import Fraction

# the loop's time on the reference host in a quiet phase
NOMINAL_S = 0.003


def loop_time() -> float:
    """Wall time of one fixed pass of rational, big-integer and float arithmetic.

    The mix follows the program's: exact rationals (pencils, linalg),
    ~1000-bit integers (Sturm chains) and float recurrences (the ODEs).
    """
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 400):
        total += Fraction(1, i)
    big = 3**600
    acc = 0
    for i in range(200):
        acc = (acc * big + i) % (big + 12345)
    f = 0.5
    for _ in range(3000):
        f = f * 1.0000001 + 1e-9
    return time.perf_counter() - start


def warm_up() -> None:
    # the first passes in a fresh interpreter run slow
    for _ in range(10):
        loop_time()


def loop_samples(n: int = 5) -> list[float]:
    return [loop_time() for _ in range(n)]


def factor_of(samples: list[float]) -> float:
    # the mean tracked the host better than the median: over 5 seeds of three
    # workloads its worst interquartile spread was 7.8% against 16.8%
    return NOMINAL_S / statistics.fmean(samples)


class SpeedLog:
    """Loop samples taken between ops, at most one per `every_s` seconds."""

    def __init__(self, every_s: float = 0.1):
        warm_up()
        self.every_s = every_s
        self.times: list[float] = []
        self.loops: list[float] = []

    def tick(self) -> None:
        if not self.times or time.perf_counter() - self.times[-1] >= self.every_s:
            self.sample()

    def sample(self) -> None:
        duration = loop_time()
        self.times.append(time.perf_counter())
        self.loops.append(duration)

    def factor(self, start: float, end: float, margin_s: float = 0.5) -> float:
        """Scale factor from the samples within margin_s of [start, end]."""
        lo = bisect.bisect_left(self.times, start - margin_s)
        hi = bisect.bisect_right(self.times, end + margin_s)
        window = self.loops[lo:hi]
        if not window:
            window = [self.loops[min(bisect.bisect_left(self.times, start), len(self.loops) - 1)]]
        return factor_of(window)
