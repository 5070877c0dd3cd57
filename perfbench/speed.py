"""Host speed sampled while the benchmark measures, to take out contention.

The benchmark gets a share of a shared host, and other tenants on the same
cores slow every instruction for stretches of seconds to minutes; op times
of the same code then spread by a quarter or more between runs.  A
`SpeedProbe` measures that slowdown while it happens: every PERIOD_S of
wall time a SIGALRM handler times `reference`, a fixed pure-Python Fraction
and dict computation that uses no dgquiver code.  An interval read from the
probe's clock, which leaves out the handler's own time, times REFERENCE_S
over the mean reference time is the interval in seconds at the host's
uncontended speed.  The benchmark's times are reported that way.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

PERIOD_S = 0.05
# Uncontended `reference` time, wall and CPU alike, sampled during ops on
# the 2-vCPU x86-64 host the baseline was recorded on.  Only a constant
# factor: medians are compared only between runs that use the same value.
REFERENCE_S = 0.00073


def reference() -> Fraction:
    acc = Fraction(0)
    row: dict[int, Fraction] = {}
    for i in range(1, 160):
        acc += Fraction(i % 7 + 1, i % 5 + 1)
        row[i % 11] = row.get(i % 11, 0) + acc
    return acc


def _trimmed_mean(xs: list[float]) -> float:
    """Mean of the middle 80%: one preempted sample must not stand for the
    whole interval."""
    xs = sorted(xs)
    k = len(xs) // 10
    xs = xs[k:len(xs) - k]
    return sum(xs) / len(xs)


class SpeedProbe:
    """Context manager: samples `reference` while the block runs.

    `clock()` gives (wall, cpu) seconds with the handler's time left out.
    After the block, `wall_factor` and `cpu_factor` turn intervals of that
    clock into seconds at uncontended speed.  A block too short to be
    sampled is sampled once at its end.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        self._spent_wall = self._spent_cpu = 0.0

    def clock(self) -> tuple[float, float]:
        return (
            time.perf_counter() - self._spent_wall,
            time.process_time() - self._spent_cpu,
        )

    def _sample(self, *_) -> None:
        w0, c0 = time.perf_counter(), time.process_time()
        reference()
        w1, c1 = time.perf_counter(), time.process_time()
        self.samples.append((w1 - w0, c1 - c0))
        self._spent_wall += w1 - w0
        self._spent_cpu += c1 - c0

    def __enter__(self) -> "SpeedProbe":
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        if not self.samples:
            self._sample()
        self.wall_factor = REFERENCE_S / _trimmed_mean([w for w, _ in self.samples])
        cpu = _trimmed_mean([c for _, c in self.samples])
        self.cpu_factor = REFERENCE_S / cpu if cpu > 0 else self.wall_factor
