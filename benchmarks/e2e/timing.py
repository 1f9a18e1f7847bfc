"""Box-speed normalisation, order statistics and span self time.

The sandbox this benchmark runs in slows down and speeds up with no
process of ours running beside it, in two ways. Its cores switch between
clock states: a fixed arithmetic loop takes ≈ 0.79 ms, ≈ 1.0 ms or
≈ 1.35 ms, in phases of 2–10 s. And neighbours on the shared host
contend for caches and memory, which slows code that walks Python
objects more than it slows arithmetic. The same round therefore reads
up to 40 % slower from one moment to the next, more than any bound the
benchmark wants to hold. Every timed region is bracketed by samples of
two reference loops — arithmetic, and dict/list/heap operations over a
few thousand objects — and its duration is scaled by the geometric mean
of ``reference time / local time`` of the two: times are reported *at
the reference box speed*. Over ten minutes of identical ``sim_sched``
rows the median of a 20-s block ranged over 26 % as read, 9.5 % scaled
by the arithmetic loop alone and 4.6 % scaled by both (README, noise
floor).
"""

from __future__ import annotations

import bisect
import math
import statistics
from heapq import heappop, heappush
from time import perf_counter

from repro.obs import PID_REAL, SpanRecord

ARITH_ITERS = 20_000
OBJECT_ITERS = 1_200
#: what the two reference loops take in the box's most common state
REF_ARITH_S = 1.0e-3
REF_OBJECTS_S = 0.85e-3
#: reference samples before and after an interval that set its factor
_NEIGHBOURS = 3

_OBJECTS = {i: [i] for i in range(4_000)}


def ref_arith() -> float:
    """Seconds one pass of the arithmetic reference loop took."""
    t0 = perf_counter()
    x = 0
    for i in range(ARITH_ITERS):
        x += i * i % 7
    return perf_counter() - t0


def ref_objects() -> float:
    """Seconds one pass of the object reference loop took: dict
    look-ups, list appends and pops, heap pushes and pops."""
    t0 = perf_counter()
    objects = _OBJECTS
    heap: list = []
    for i in range(OBJECT_ITERS):
        key = i * 7919 % 4_000
        held = objects[key]
        held.append(i)
        heappush(heap, (held[0], key))
        if len(held) > 3:
            held.pop()
    while heap:
        heappop(heap)
    return perf_counter() - t0


class SpeedLog:
    """Time-stamped reference-loop samples taken between timed regions."""

    def __init__(self) -> None:
        self._at: list[float] = []
        self._arith: list[float] = []
        self._objects: list[float] = []

    def sample(self, n: int = 1) -> None:
        """Run both reference loops ``n`` times and keep the readings."""
        for _ in range(n):
            self._arith.append(ref_arith())
            self._objects.append(ref_objects())
            self._at.append(perf_counter())

    @staticmethod
    def _scale(arith: list[float], objects: list[float]) -> float:
        return math.sqrt(
            REF_ARITH_S / statistics.median(arith)
            * REF_OBJECTS_S / statistics.median(objects)
        )

    def factor(self, t0: float, t1: float) -> float:
        """Scale that maps a duration measured in ``[t0, t1]`` (two
        ``perf_counter`` readings) to the reference box speed, from the
        samples just before, inside and just after it."""
        lo = max(0, bisect.bisect_left(self._at, t0) - _NEIGHBOURS)
        hi = bisect.bisect_right(self._at, t1) + _NEIGHBOURS
        if not self._at[lo:hi]:
            raise RuntimeError("no reference sample near the interval")
        return self._scale(self._arith[lo:hi], self._objects[lo:hi])

    def timed(self, fn, *args, **kwargs):
        """``(result, seconds at reference speed)`` of one call."""
        self.sample(2)
        t0 = perf_counter()
        out = fn(*args, **kwargs)
        t1 = perf_counter()
        self.sample(2)
        return out, (t1 - t0) * self.factor(t0, t1)

    def median_factor(self) -> float:
        """Typical scale over the whole log (1.0 = reference speed)."""
        return self._scale(self._arith, self._objects)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile ``q`` in [0, 100] (0.0 for no values)."""
    if not values:
        return 0.0
    xs = sorted(values)
    return xs[max(0, math.ceil(q / 100 * len(xs)) - 1)]


def median(values: list[float]) -> float:
    """Median, 0.0 for no values (an absent kind of round)."""
    return statistics.median(values) if values else 0.0


def mean(values: list[float]) -> float:
    """Mean, 0.0 for no values."""
    return statistics.fmean(values) if values else 0.0


def segments(values: list, n: int = 5) -> list[list]:
    """``values`` cut into ``n`` consecutive parts of equal length."""
    return [
        values[i * len(values) // n:(i + 1) * len(values) // n]
        for i in range(n)
    ]


def self_times(records: list[SpanRecord]) -> dict[str, float]:
    """Total self time per span name: a span's duration minus the part
    its child spans cover. A child is a span of the same thread that
    lies wholly inside another; spans that merely overlap are siblings.
    """
    by_tid: dict[int, list[SpanRecord]] = {}
    for r in records:
        if r.pid == PID_REAL and r.t1 is not None:
            by_tid.setdefault(r.tid, []).append(r)
    out: dict[str, float] = {}
    for spans in by_tid.values():
        spans.sort(key=lambda r: (r.t0, -r.t1))
        stack: list[SpanRecord] = []
        for r in spans:
            while stack and not (
                stack[-1].t0 <= r.t0 and r.t1 <= stack[-1].t1
            ):
                stack.pop()
            out[r.name] = out.get(r.name, 0.0) + r.duration
            if stack:
                out[stack[-1].name] -= r.duration
            stack.append(r)
    return out
