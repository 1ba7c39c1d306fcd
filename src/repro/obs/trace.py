"""Simulation-time spans and instants — the structured event log.

The tracer answers the question :mod:`repro.sim.trace` cannot: not just
*what happened* (frames seen at taps) but *who decided what, when, and
how long it took* — which scheme inspected which frame, which switch
dropped it, where the event loop spent simulated time.

Design constraints, in order:

1. **Zero cost when disabled.**  Every instrumentation site guards with
   ``if TRACER.enabled:`` — one global-load plus attribute-load, no call.
   The ``repro bench --check`` gate runs with tracing off and must not
   regress against ``BENCH.json``.
2. **Bounded.**  Events land in a ring (``deque(maxlen=...)``); when it
   wraps, :attr:`Tracer.dropped` counts what was lost so a truncated
   trace is never mistaken for a complete one.
3. **Simulation clock.**  Timestamps are simulated seconds read through
   a bound clock callable (``sim.now``), not wall time, so fixed-seed
   runs export byte-identical traces.

Span usage::

    if TRACER.enabled:
        with TRACER.span("scheme.inspect", scheme="dai", frame=fid):
            verdict = inspect(frame)
    else:
        verdict = inspect(frame)

or, when the double-call-site is awkward, ``TRACER.span(...)`` may be
used unconditionally — the context manager itself no-ops when disabled —
but hot paths should prefer the guarded form.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, Iterable, List, NamedTuple, Optional

from repro.obs.provenance import Provenance

__all__ = ["ObsEvent", "Tracer", "TRACER", "DEFAULT_CAPACITY"]

#: Default event-ring capacity.
DEFAULT_CAPACITY = 1 << 18


class ObsEvent(NamedTuple):
    """One structured trace event.

    ``dur`` is ``None`` for instants; for spans it is the simulated (or
    host, if no sim clock is bound) duration in seconds.
    """

    name: str
    ts: float
    dur: Optional[float]
    kind: str  # "span" | "instant"
    attrs: Dict[str, object]


class _SpanHandle:
    """Context manager returned by :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "_name", "_attrs", "_start")

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, object]):
        self._tracer = tracer
        self._name = name
        self._attrs = attrs
        self._start = 0.0

    def __enter__(self) -> "_SpanHandle":
        self._start = self._tracer.now()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        tracer = self._tracer
        end = tracer.now()
        tracer.record(
            ObsEvent(self._name, self._start, end - self._start, "span", self._attrs)
        )

    def set(self, **attrs: object) -> None:
        """Attach attributes discovered mid-span (e.g. the verdict)."""
        self._attrs.update(attrs)


class _FrameSpan(_SpanHandle):
    """A span whose ``frame`` is the tracer's current frame inside it."""

    __slots__ = ("_previous",)

    def __enter__(self) -> "_FrameSpan":
        tracer = self._tracer
        self._previous = tracer.current_frame
        tracer.current_frame = self._attrs["frame"]
        return super().__enter__()

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            super().__exit__(exc_type, exc, tb)
        finally:
            self._tracer.current_frame = self._previous


class _NullSpan:
    """Shared no-op context manager for the disabled path."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None

    def set(self, **attrs: object) -> None:
        return None


_NULL_SPAN = _NullSpan()


class Tracer:
    """Bounded structured event log with simulation-clock timestamps."""

    def __init__(self, capacity: Optional[int] = DEFAULT_CAPACITY) -> None:
        self.enabled = False
        self.events: Deque[ObsEvent] = deque(maxlen=capacity)
        self.dropped = 0
        self._clock: Callable[[], float] = lambda: 0.0
        self.provenance = Provenance()
        #: Frame id currently being processed (set by RX paths so alert
        #: sites deep in scheme code can attribute without plumbing).
        self.current_frame: Optional[int] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def enable(self, capacity: Optional[int] = None) -> None:
        if capacity is not None:
            self.events = deque(self.events, maxlen=capacity)
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self, capacity: Optional[int] = DEFAULT_CAPACITY) -> None:
        """Fresh log, fresh provenance, clock unbound; keeps enabled flag."""
        self.events = deque(maxlen=capacity)
        self.dropped = 0
        self._clock = lambda: 0.0
        self.provenance.reset()
        self.current_frame = None

    def use_clock(self, clock: Callable[[], float]) -> None:
        """Bind the timestamp source (typically ``lambda: sim.now``)."""
        self._clock = clock

    def now(self) -> float:
        return self._clock()

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------
    def record(self, event: ObsEvent) -> None:
        ring = self.events
        if ring.maxlen is not None and len(ring) == ring.maxlen:
            self.dropped += 1
        ring.append(event)

    def instant(self, name: str, **attrs: object) -> None:
        """Emit a point-in-time event (drop, alert, injection...)."""
        if not self.enabled:
            return
        self.record(ObsEvent(name, self._clock(), None, "instant", attrs))

    def span(self, name: str, **attrs: object):
        """Start a duration event; use as a context manager."""
        if not self.enabled:
            return _NULL_SPAN
        return _SpanHandle(self, name, attrs)

    def frame_span(self, name: str, data: bytes, **attrs: object):
        """A span over one received buffer's handling.

        Resolves ``data`` to its frame id (free: buffers flow through
        transmit, carry and deliver unchanged), which the span carries
        as ``frame`` and which stays :attr:`current_frame` inside it, so
        filters and alerts deeper in the receive path can attribute
        their decisions.  A no-op when disabled.
        """
        if not self.enabled:
            return _NULL_SPAN
        attrs["frame"] = self.provenance.lookup(data)
        return _FrameSpan(self, name, attrs)

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def find(self, name: str) -> List[ObsEvent]:
        return [e for e in self.events if e.name == name]

    def by_frame(self, frame_id: int) -> List[ObsEvent]:
        return [e for e in self.events if e.attrs.get("frame") == frame_id]

    def names(self) -> Iterable[str]:
        return sorted({e.name for e in self.events})

    def __len__(self) -> int:
        return len(self.events)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "on" if self.enabled else "off"
        return f"Tracer({state}, events={len(self.events)}, dropped={self.dropped})"


#: The process-global tracer.  Hot paths read ``TRACER.enabled`` once per
#: site; everything else goes through methods.
TRACER = Tracer()
