"""Host-speed gauge: a fixed reference loop timed between the cells.

A shared host does not run the same code at the same speed from one
minute to the next: on the 2-vCPU container this benchmark was written
on, a fixed pure-Python loop took 30 ms in some stretches and 50 ms in
others, and benchmark cells slowed down by the same factor at the same
times.  Medians over a run do not remove that, because the slow
stretches last tens of seconds.

The gauge measures how fast the host runs right now.  It times a fixed
round of pure-Python work whose mix resembles the program's event-loop
code: heap pushes and pops, small objects, dictionary lookups and
bytes slicing.  The round lives in the benchmark, so no change to the
program can make it faster or slower.  Each timed interval is then
scaled by ``NOMINAL_S`` over the mean of the rounds timed just before,
inside and just after it, widened by one more round on each side to
steady the scale of long cells: a time in seconds *at the nominal host
speed*.  A faster program still shows in full, since only the host's
share of the time is divided out.
"""

from __future__ import annotations

import bisect
import heapq
import statistics
import time
from typing import List

#: Seconds one reference round takes at the nominal host speed (about
#: the median on a 2-vCPU x86-64 container with CPython 3.11).
NOMINAL_S = 0.045


class _Item:
    __slots__ = ("t", "kind", "data")

    def __init__(self, t: int, kind: int, data: bytes) -> None:
        self.t = t
        self.kind = kind
        self.data = data


def reference_round(n: int = 20_000) -> int:
    """A fixed amount of pure-Python work; returns a checksum."""
    heap: list = []
    table: dict = {}
    payload = bytes(range(64))
    checksum = 0
    for i in range(n):
        heapq.heappush(heap, (i * 7 % 1009, i, _Item(i, i & 3, payload[i & 31:(i & 31) + 28])))
        if len(heap) > 64:
            _, _, item = heapq.heappop(heap)
            key = int.from_bytes(item.data[:6], "big") ^ item.kind
            entry = table.get(key)
            if entry is None:
                table[key] = [item.t, 1]
            else:
                entry[0] = item.t
                entry[1] += 1
                checksum += entry[1]
            if len(table) > 512:
                table.clear()
    return checksum


class Gauge:
    """Reference rounds timed between cells, and the scale they give."""

    #: :meth:`maybe_read` reads at most once per ``interval`` seconds.
    interval = 1.0
    #: Rounds beyond the bracketing ones, on each side, in a scale.
    margin = 1

    def __init__(self) -> None:
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.rounds: List[float] = []
        #: Seconds spent in reference rounds, to take out of enclosing timings.
        self.spent = 0.0

    def read(self) -> None:
        t0 = time.perf_counter()
        reference_round()
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.ends.append(t1)
        self.rounds.append(t1 - t0)
        self.spent += t1 - t0

    def maybe_read(self) -> None:
        if not self.ends or time.perf_counter() - self.ends[-1] >= self.interval:
            self.read()

    def scale(self, t0: float, t1: float) -> float:
        """``NOMINAL_S`` over the mean round from the last one ending by
        ``t0`` to the first one starting at or after ``t1``, plus
        ``margin`` rounds on either side."""
        if not self.rounds:
            return 1.0
        lo = max(0, bisect.bisect_right(self.ends, t0) - 1 - self.margin)
        hi = bisect.bisect_left(self.starts, t1) + 1 + self.margin
        return NOMINAL_S / statistics.fmean(self.rounds[lo:hi] or self.rounds[-1:])

    def normal(self, seconds: float, t0: float) -> float:
        """``seconds`` of host time starting at ``t0``, at the nominal speed."""
        return seconds * self.scale(t0, t0 + seconds)

    def median_round(self) -> float:
        return statistics.median(self.rounds) if self.rounds else 0.0
