"""Frame capture — the simulator's answer to tcpdump/libpcap.

A :class:`TraceRecorder` is attached wherever frames should be observable
(links, switch ports, host NICs).  Records carry the simulated timestamp,
the capture location, direction, and the raw frame bytes, so a detector
operating on a capture sees exactly what a sniffer on a mirror port would.

Nothing captures by default: every ``Link``, ``Host``, ``Switch`` and
``Hub`` starts with ``recorder = None``, and each record site is one
``is not None`` test (hoisted once per batch on the batched paths).  A
reader that wants a capture assigns a recorder before the run::

    lan.monitor.recorder = TraceRecorder()

The Figure 2 overhead runner is the one reader in the package: it
attaches an unbounded recorder to the switch after its quiesce.

Storage is a bounded ring: once ``capacity`` records are held, each new
capture evicts the oldest (like a sniffer's ring buffer) and bumps
:attr:`TraceRecorder.dropped`.  The default capacity (:data:`DEFAULT_CAPACITY`,
256 Ki records) is far above what any scenario in the suite produces, so
captures are effectively complete unless a caller opts into a tighter
bound; pass ``capacity=None`` for a truly unbounded recorder.  Live taps
always see every record regardless of eviction.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Iterable, Iterator, NamedTuple, Optional

from repro.perf import PERF

__all__ = ["TraceRecord", "TraceRecorder", "Direction", "DEFAULT_CAPACITY"]

#: Default ring size.  Large enough that every scenario shipped with the
#: repo captures losslessly (the heaviest campaign run records ~10^5
#: frames per switch), small enough to bound a runaway soak test.
DEFAULT_CAPACITY = 1 << 18


class Direction:
    """Direction of a captured frame relative to the capture point."""

    TX = "tx"
    RX = "rx"


class TraceRecord(NamedTuple):
    """One captured frame.

    A named tuple rather than a dataclass: one record is created per
    frame per capture point, so construction cost is on the wire fast
    path, and tuple ``__new__`` runs in C.
    """

    time: float
    location: str
    direction: str
    frame: bytes
    note: str = ""

    def __len__(self) -> int:
        return len(self.frame)


class TraceRecorder:
    """Accumulates :class:`TraceRecord` objects and fans out to live taps.

    Live taps (callables) receive each record as it is captured; detectors
    that need to react in simulated real time subscribe as taps, while
    offline analysis reads :attr:`records` afterwards.

    Parameters
    ----------
    capacity:
        Maximum records retained.  When full, the *oldest* record is
        evicted to admit the new one (ring-buffer semantics) and
        :attr:`dropped` is incremented.  ``None`` disables the bound.
    """

    def __init__(self, capacity: Optional[int] = DEFAULT_CAPACITY) -> None:
        self.records: Deque[TraceRecord] = deque(maxlen=capacity)
        self._taps: list[Callable[[TraceRecord], None]] = []
        self._capacity = capacity
        self.dropped = 0

    @property
    def capacity(self) -> Optional[int]:
        """The configured ring size (``None`` means unbounded)."""
        return self._capacity

    def tap(self, callback: Callable[[TraceRecord], None]) -> Callable[[], None]:
        """Subscribe a live callback; returns an unsubscribe callable."""
        self._taps.append(callback)

        def unsubscribe() -> None:
            if callback in self._taps:
                self._taps.remove(callback)

        return unsubscribe

    def record(
        self,
        time: float,
        location: str,
        direction: str,
        frame: bytes,
        note: str = "",
    ) -> TraceRecord:
        """Capture one frame and notify taps."""
        rec = TraceRecord(time, location, direction, frame, note)
        records = self.records
        maxlen = records.maxlen
        if maxlen is not None and len(records) == maxlen:
            # Deque evicts the oldest on append.  The process-wide tally
            # surfaces in `# perf:` lines so a wrapped capture is never
            # mistaken for a complete one.
            self.dropped += 1
            PERF.trace_drops += 1
        records.append(rec)
        if self._taps:
            for tap in list(self._taps):
                tap(rec)
        return rec

    # ------------------------------------------------------------------
    # Query helpers
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    def between(self, start: float, end: float) -> Iterable[TraceRecord]:
        """Records with ``start <= time < end``."""
        return [r for r in self.records if start <= r.time < end]

    def at_location(self, location: str) -> Iterable[TraceRecord]:
        return [r for r in self.records if r.location == location]

    def total_bytes(self) -> int:
        """Sum of captured frame sizes (overhead accounting)."""
        return sum(len(r.frame) for r in self.records)

    def clear(self) -> None:
        self.records.clear()
        self.dropped = 0
