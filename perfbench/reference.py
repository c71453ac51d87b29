"""A fixed reference computation that gauges the host's current speed.

The benchmark shares its host with other work, and on a shared 2-vCPU Xeon
VM the host's speed drifted by a fifth or more over minutes, and by half
over an hour: the same repetition in the same process took 55 ms per
request in one minute and 80 ms a few minutes later.  Runs of different
seeds land in different minutes, so over ten runs the raw host time per
request spread (interquartile range over median) by up to 0.28, past the
largest bound a metric may have.  This kernel is timed right before and
right after every repetition; dividing a repetition's host time by it gives
``host_cost_per_request``, the cost of a request in passes of this kernel,
and the drift common to both divides out.  Over 30-second windows of one
process that cut the spread from 0.15 to 0.06.

One pass mirrors the kinds of work the program spends its host time on:
numpy streaming over arrays larger than the cache (decode, quantise and
score KV tensors), numpy on arrays that fit in it, and interpreter-bound
bookkeeping.  It calls nothing of the program, so a change to the program
never moves it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

__all__ = ["PASSES", "ReferenceKernel"]

#: Timed passes per measurement; the median is reported.
PASSES = 5
#: 16 MB of float32 per array: past the cache a core gets to itself.
_STREAM_ELEMENTS = 4_000_000
#: 64 KB of float32: stays in cache.
_CACHED_ELEMENTS = 16_000


class ReferenceKernel:
    """The kernel's arrays, allocated once and kept for the whole run.

    Allocating them per measurement would put page faults into the timing
    and, between repetitions, add their 48 MB to whatever the program's
    allocator still holds -- a peak that moves with the program.  Kept from
    the start, they add the same 48 MB to every run's peak memory.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal(_STREAM_ELEMENTS).astype(np.float32)
        self._b = np.empty_like(self._a)
        self._c = np.empty_like(self._a)
        self._s = rng.standard_normal(_CACHED_ELEMENTS).astype(np.float32)
        self._t = np.empty_like(self._s)
        self._pass()

    def _pass(self) -> None:
        a, b, c, s, t = self._a, self._b, self._c, self._s, self._t
        for _ in range(8):
            np.multiply(a, 1.0001, out=b)
            np.add(b, a, out=c)
            np.subtract(c, b, out=b)
        float(b.sum())
        for _ in range(800):
            np.exp(s, out=t)
            np.sqrt(np.abs(t, out=t), out=t)
        float(t.sum())
        counts: dict[int, int] = {}
        for i in range(150_000):
            counts[i % 1000] = counts.get(i % 1000, 0) + i

    def pass_seconds(self) -> float:
        """Median wall time of one pass, over :data:`PASSES` passes."""
        times = []
        for _ in range(PASSES):
            start = time.perf_counter()
            self._pass()
            times.append(time.perf_counter() - start)
        return statistics.median(times)
