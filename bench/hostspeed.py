"""Host speed, sampled while the benchmark runs, to report times in reference seconds.

The machine this benchmark was written on changes speed by up to 1.8x
within a minute, because other tenants share its cores, and the same
operation's host time moves with it by far more than the differences the
benchmark exists to show.  So a timer signal runs a small fixed pure-Python
kernel every ``PERIOD_S`` seconds, in the benchmark's own thread, and
records how long it took.  A span of work is then reported in reference
seconds: its host seconds, less the kernel's time inside the span, times
``REFERENCE_S`` over the kernel's mean time around the span.  A change to the
program moves reference seconds as it moves host seconds; a change in host
speed slows the kernel as well and cancels out.  The kernel takes about 1% of
the run; separate processes still differ by a few percent after correction.
"""

from __future__ import annotations

import heapq
import random
import signal
import statistics
import time
from array import array
from bisect import bisect_left

PERIOD_S = 0.05
REFERENCE_S = 0.0005
AROUND_S = 0.5

_rng = random.Random(7)
_GRAPH = {u: [(_rng.randrange(200), _rng.random()) for _ in range(5)] for u in range(200)}


def kernel() -> int:
    """Earliest-arrival search over a fixed random graph: heap, dict and set work."""
    best = {0: 0.0}
    done: set[int] = set()
    heap = [(0.0, 0)]
    while heap:
        d, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        for v, w in _GRAPH[u]:
            nd = d + w
            if nd < best.get(v, 1e18):
                best[v] = nd
                heapq.heappush(heap, (nd, v))
    return len(done)


class HostSpeed:
    """Kernel timings taken on ``SIGALRM`` while the context is entered."""

    def __init__(self) -> None:
        self.starts = array("d")
        self.durations = array("d")
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        kernel()
        self.starts.append(start)
        self.durations.append(time.perf_counter() - start)

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def seconds(self, t0: float, t1: float) -> tuple[float, float]:
        """(host seconds, reference seconds) of the span from ``t0`` to ``t1``.

        Host seconds exclude the kernel runs inside the span.  The host speed
        is the kernel's mean time over the samples within ``AROUND_S`` of the
        span, or over every sample when none is that close.
        """
        i, j = bisect_left(self.starts, t0), bisect_left(self.starts, t1)
        host = (t1 - t0) - sum(self.durations[i:j])
        lo, hi = bisect_left(self.starts, t0 - AROUND_S), bisect_left(self.starts, t1 + AROUND_S)
        near = self.durations[lo:hi] or self.durations
        return host, host * REFERENCE_S / statistics.fmean(near)
