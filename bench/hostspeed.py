"""Host speed: a fixed standard-library kernel, timed between ops.

The machines this benchmark runs on are shared.  The same interpreter work
takes from about 0.6 to 1.4 times its usual time there, depending on what
neighbouring machines do.  That speed changes within a second and drifts
over minutes, so a run's timings move by a fifth with no change to the
program.  Consecutive ops slow down together, though, and so does a short
kernel run right next to them.

So the worker times `kernel` once before the first op of a pass, once
after every op, and every INTERVAL_S while an op runs (OpSampler).  An
op's host factor is the mean of the kernel times around and inside it
divided by REF_NS.  The kernel time spent inside an op is taken off the
op's latency.  The end-to-end timings divide each latency by its host
factor: they are latencies at the host speed at which the kernel takes
REF_NS.  Set-up is scaled the same way, by the factors run.py measures
right before it spawns a worker and right after the worker reports READY.

The kernel uses only the standard library (Fraction, big integers, dicts:
the operations hlmax spends its time in), so no change to hlmax moves it.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

# median kernel time on the host of bench/baseline.json (Intel Xeon at
# 2.1 GHz, 2 vCPUs, Python 3.11.7); it fixes the scale of the reported times
REF_NS = 750_000
# how often the kernel runs while an op runs: a long op sees the host speed
# along its whole length, at a cost of REF_NS per INTERVAL_S (1.5%)
INTERVAL_S = 0.05


def kernel():
    acc = Fraction(0)
    big = 3**300
    counts: dict = {}
    for i in range(1, 200):
        acc += Fraction(i % 17 + 1, i % 13 + 2)
        big = big * (i + 7) // (i + 1)
        counts[i & 15] = counts.get(i & 15, 0) + i
    return acc, big, counts


def sample() -> int:
    """Nanoseconds one kernel run takes now, with the garbage collector
    held off so that the program's heap does not enter the measure."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter_ns()
        kernel()
        return time.perf_counter_ns() - t0
    finally:
        if enabled:
            gc.enable()


def factor(samples: int = 5) -> float:
    """The host factor now: median kernel time over REF_NS."""
    return statistics.median(sample() for _ in range(samples)) / REF_NS


class OpSampler:
    """Times the kernel every INTERVAL_S of wall time while an op runs,
    from a SIGALRM handler on the op's own thread, so the op and the kernel
    never run at the same time.  Use as a context manager around a pass;
    `start()` and `stop()` bracket each op."""

    def __init__(self):
        self.samples: list = []
        self.spent_ns = 0
        self.armed = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum, frame):
        if not self.armed:  # delivered after stop()
            return
        t0 = time.perf_counter_ns()
        self.samples.append(sample())
        self.spent_ns += time.perf_counter_ns() - t0

    def start(self) -> None:
        self.samples = []
        self.spent_ns = 0
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> tuple:
        """(kernel times taken inside the op, ns the kernel runs took)."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.armed = False
        return self.samples, self.spent_ns
