"""Deterministic discrete-event simulation engine.

The simulator is the clock and scheduler every other component hangs off.
It is intentionally small: a priority queue of timestamped callbacks with a
deterministic tie-break, a seeded random source factory, and run-until
helpers.  Determinism is a hard requirement — two runs with the same seed
must produce byte-identical traces, because the analysis framework compares
schemes across runs and the test suite asserts on exact event orders.

Internally the heap stores plain ``(time, seq, event)`` tuples so ordering
comparisons run in C instead of through a Python ``__lt__`` — on wire-heavy
workloads the heap siftup is a measurable fraction of the run.  Cancelled
events are skipped lazily on pop, and the heap is compacted whenever
cancelled entries outnumber live ones (see :meth:`Event.cancel`), so
long-running simulations that arm and cancel many timers (ARP retries,
cache aging) do not leak.

Same-timestamp deliveries to one sink can additionally be *coalesced*
(:meth:`Simulator.coalesce`, the wire's one delivery entry): the caller
gives an absolute arrival time and a list of items, and all items landing
on the same ``(time, sink)`` pair share one flush event that hands
``sink.deliver_batch`` the whole batch at once, instead of one event per
frame.  A local link and a cross-partition envelope both arrive through
it.  It is also the one place that picks the plane: with
``batching=False`` or tracing on, the same call schedules one event per
item at the same timestamp, each handing ``sink.deliver_batch`` a batch
of one, so fixed-seed runs stay reproducible either way.

Example
-------
>>> sim = Simulator(seed=7)
>>> fired = []
>>> sim.schedule(1.5, lambda: fired.append("b"))
>>> sim.schedule(0.5, lambda: fired.append("a"))
>>> sim.run()
>>> fired
['a', 'b']
>>> sim.now
1.5
"""

from __future__ import annotations

import heapq
import itertools
import random
from functools import partial
from typing import Callable, Iterator, Optional

from repro.errors import ClockError, SimulationError
from repro.obs.live import default_recorder as _default_recorder
from repro.obs.trace import TRACER
from repro.perf import PERF

__all__ = ["Event", "Simulator", "DEFAULT_BATCHING"]

#: Compaction never triggers below this many cancelled entries — tiny heaps
#: are cheaper to skip through than to rebuild.
_COMPACT_MIN_CANCELLED = 64

#: Process-wide default for :class:`Simulator` batching.  ``repro bench
#: --no-batch`` (and the CI batch-off smoke job) flip this to prove the
#: per-event plane still works and still meets its own gate.
DEFAULT_BATCHING = True


class Event:
    """A scheduled callback.

    Events order by ``(time, seq)``; ``seq`` is a monotonically increasing
    insertion counter, so two events at the same instant fire in the order
    they were scheduled.  Cancelling marks the event dead; the simulator
    skips dead entries on pop and compacts the heap when they pile up.
    """

    __slots__ = ("time", "seq", "action", "name", "cancelled", "_sim")

    def __init__(
        self,
        time: float,
        seq: int,
        action: Callable[[], None],
        name: str = "",
        sim: Optional["Simulator"] = None,
    ) -> None:
        self.time = time
        self.seq = seq
        self.action = action
        self.name = name
        self.cancelled = False
        self._sim = sim

    def cancel(self) -> None:
        """Prevent this event from firing (idempotent)."""
        if self.cancelled:
            return
        self.cancelled = True
        sim = self._sim
        if sim is not None:  # still queued: let the owner account for it
            sim._note_cancelled()

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        return f"Event(t={self.time:.6f}, seq={self.seq}, name={self.name!r}{state})"


class _Flush(Event):
    """The flush event of one coalesced batch (:meth:`Simulator.coalesce`).

    One slotted object per batch, in place of an :class:`Event` plus a
    flush closure and its cells: the batched plane schedules one of
    these per delivery, so every allocation saved here is saved per
    frame hop.  ``action`` is a method, so the event loop fires it like
    any other event.  Flush events are never cancelled.
    """

    __slots__ = ("key", "sink", "items", "batches")

    def __init__(
        self,
        time: float,
        seq: int,
        name: str,
        sim: "Simulator",
        key: tuple,
        sink,
        items: list,
        batches: dict,
    ) -> None:
        self.time = time
        self.seq = seq
        self.name = name
        self.cancelled = False
        self._sim = sim
        self.key = key
        self.sink = sink
        self.items = items
        #: The simulator's open-batch dict; the flush closes its entry.
        self.batches = batches

    def action(self) -> None:  # type: ignore[override]
        items = self.items
        del self.batches[self.key]
        PERF.batch_flushes += 1
        PERF.batched_items += len(items)
        self.sink.deliver_batch(items)


class _Periodic:
    """One :meth:`Simulator.call_every` timer.

    ``fire`` and ``cancel`` are methods, not closures that refer to each
    other, so a cancelled timer, which drops its event, holds no
    reference cycle.  While armed, the queued event's action points back
    at the timer; :meth:`Simulator.release` cuts that.
    """

    __slots__ = ("sim", "interval", "action", "name", "jitter", "event")

    def __init__(
        self,
        sim: "Simulator",
        interval: float,
        action: Callable[[], None],
        name: str,
        jitter: Optional[Callable[[], float]],
    ) -> None:
        self.sim = sim
        self.interval = interval
        self.action = action
        self.name = name
        self.jitter = jitter
        #: The armed event; ``None`` once cancelled.
        self.event: Optional[Event] = None

    def fire(self) -> None:
        if self.event is None:
            return
        self.action()
        if self.event is None:  # the action cancelled its own timer
            return
        extra = self.jitter() if self.jitter is not None else 0.0
        delay = max(0.0, self.interval + extra)
        self.event = self.sim.schedule(delay, self.fire, name=self.name)

    def cancel(self) -> None:
        event, self.event = self.event, None
        if event is not None:
            event.cancel()


class Simulator:
    """Event loop with a virtual clock.

    Parameters
    ----------
    seed:
        Seed for the root random stream.  Component-specific streams are
        derived with :meth:`rng_stream` so adding a new consumer does not
        perturb the draws seen by existing ones.
    """

    def __init__(self, seed: int = 0, batching: Optional[bool] = None) -> None:
        self._now = 0.0
        #: Heap of ``(time, seq, Event)`` — tuple keys keep comparisons in C.
        self._heap: list[tuple[float, int, Event]] = []
        self._counter = itertools.count()
        self._seed = seed
        self._running = False
        self._cancelled_in_heap = 0
        self.events_processed = 0
        self.heap_compactions = 0
        #: Same-timestamp event coalescing (the batched data plane).
        #: ``None`` inherits the process default so the batch-off smoke
        #: path (``repro bench --no-batch``) needs no per-site plumbing.
        self.batching = DEFAULT_BATCHING if batching is None else batching
        #: Open coalesced batches: ``(when, sink) -> item list``.  The
        #: list is aliased by the flush event scheduled at first insert,
        #: so later same-instant items ride along for free.
        self._open_batches: dict = {}
        #: Live telemetry recorder (:mod:`repro.obs.live`), or ``None``.
        #: ``run()`` only pays for telemetry when one is attached.
        self.telemetry = None
        if TRACER.enabled:
            # The most recently built simulator owns the trace clock, so
            # span timestamps are simulated seconds (deterministic per
            # seed), not wall time.
            TRACER.use_clock(lambda: self._now)
        recorder = _default_recorder()
        if recorder is not None:
            recorder.attach(self)

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def seed(self) -> int:
        """The seed this simulator was built with."""
        return self._seed

    def rng_stream(self, name: str) -> random.Random:
        """Return an independent, reproducible random stream.

        The stream is keyed by ``(seed, name)`` so that every component
        drawing randomness (traffic generator, attacker jitter, MAC
        allocator...) is isolated from the others.
        """
        return random.Random(f"{self._seed}/{name}")

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: float,
        action: Callable[[], None],
        name: str = "",
    ) -> Event:
        """Schedule ``action`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ClockError(f"cannot schedule into the past (delay={delay})")
        # Inlined schedule_at: this is the hottest allocation site in the
        # simulator (one call per frame hop), so skip the re-validation.
        when = self._now + delay
        seq = next(self._counter)
        event = Event(time=when, seq=seq, action=action, name=name, sim=self)
        heapq.heappush(self._heap, (when, seq, event))
        return event

    def schedule_at(
        self,
        when: float,
        action: Callable[[], None],
        name: str = "",
    ) -> Event:
        """Schedule ``action`` at absolute time ``when``."""
        if when < self._now:
            raise ClockError(
                f"cannot schedule at t={when} before current time t={self._now}"
            )
        seq = next(self._counter)
        event = Event(time=when, seq=seq, action=action, name=name, sim=self)
        heapq.heappush(self._heap, (when, seq, event))
        return event

    # ------------------------------------------------------------------
    # Same-timestamp coalescing (the batched data plane)
    # ------------------------------------------------------------------
    def coalesce(
        self,
        when: float,
        sink,
        items: list,
        name: str = "link.carry",
    ) -> None:
        """Deliver ``items`` to ``sink`` at absolute time ``when``, batched
        when possible: the wire's one delivery entry.

        The caller computes ``when`` (a link as ``now + wire_delay(...)``,
        a cross-partition envelope carries it precomputed), so one float
        keys the batch however the frame got here.  ``items`` must not be
        empty; the list is adopted, not copied: it becomes the open batch
        when none is open for ``(when, sink)``.

        On the batched plane (:attr:`batching` on, tracing off) all items
        coalesced onto the same ``(when, sink)`` pair are handed to
        ``sink.deliver_batch(items)`` by a single flush event, scheduled
        with the sequence number of the batch's *first* item — so a batch
        fires exactly where its first frame would have, and items keep
        their arrival order inside the batch.  On the per-event plane
        (the reference), and whenever tracing is on so span semantics
        never fork, each item gets its own event at the same timestamp,
        which hands ``sink.deliver_batch`` a batch of one.  The flush is
        one slotted :class:`_Flush` event whose ``action`` is a method,
        fired straight from :meth:`_fire`, so a profiler sees every
        coalesced delivery called from the event loop itself.
        """
        batch = self._open_batches.get((when, sink))
        if batch is not None:  # an open batch is never in the past
            batch += items
            return
        if when < self._now:
            raise ClockError(
                f"cannot schedule at t={when} before current time t={self._now}"
            )
        heap = self._heap
        counter = self._counter
        if not self.batching or TRACER.enabled:
            deliver = sink.deliver_batch
            for item in items:
                seq = next(counter)
                event = Event(
                    time=when, seq=seq, action=partial(deliver, (item,)), name=name,
                    sim=self,
                )
                heapq.heappush(heap, (when, seq, event))
            return
        key = (when, sink)
        self._open_batches[key] = items
        seq = next(counter)
        event = _Flush(when, seq, name, self, key, sink, items, self._open_batches)
        heapq.heappush(heap, (when, seq, event))

    def call_every(
        self,
        interval: float,
        action: Callable[[], None],
        name: str = "",
        start: Optional[float] = None,
        jitter: Optional[Callable[[], float]] = None,
    ) -> Callable[[], None]:
        """Run ``action`` periodically; returns a canceller callable.

        ``jitter``, when given, is called before each firing and its result
        (seconds, may be negative but clamped at zero) is added to the
        interval.  Used by attackers and traffic sources to avoid lockstep.
        """
        if interval <= 0:
            raise SimulationError(f"interval must be positive, got {interval}")
        timer = _Periodic(self, interval, action, name, jitter)
        first_delay = interval if start is None else max(0.0, start - self._now)
        timer.event = self.schedule(first_delay, timer.fire, name=name)
        return timer.cancel

    # ------------------------------------------------------------------
    # Cancellation accounting
    # ------------------------------------------------------------------
    def _note_cancelled(self) -> None:
        """Called by :meth:`Event.cancel` while the event is still queued."""
        self._cancelled_in_heap += 1
        if (
            self._cancelled_in_heap >= _COMPACT_MIN_CANCELLED
            and self._cancelled_in_heap * 2 > len(self._heap)
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify (order is preserved:
        the heap invariant is rebuilt over the same ``(time, seq)`` keys)."""
        # In-place so aliases held by the run() loop stay valid.
        self._heap[:] = [entry for entry in self._heap if not entry[2].cancelled]
        heapq.heapify(self._heap)
        self._cancelled_in_heap = 0
        self.heap_compactions += 1

    def _detach(self, event: Event) -> None:
        """Mark ``event`` as no longer queued (it was popped)."""
        event._sim = None
        if event.cancelled:
            self._cancelled_in_heap -= 1

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def _fire(self, event: Event) -> None:
        """Dispatch one live event — the single code path for traced and
        untraced dispatch, shared by :meth:`step` and :meth:`run` so
        single-stepped tests produce the same ``sim.event`` spans a full
        run does."""
        if TRACER.enabled and event.name:
            with TRACER.span("sim.event", event=event.name):
                event.action()
        else:
            event.action()

    def step(self) -> bool:
        """Process the next pending event; return ``False`` when idle."""
        heap = self._heap
        while heap:
            when, _seq, event = heapq.heappop(heap)
            self._detach(event)
            if event.cancelled:
                continue
            if when < self._now:
                raise ClockError("event heap yielded an event in the past")
            self._now = when
            self.events_processed += 1
            self._fire(event)
            if self.telemetry is not None:
                self.telemetry.tick(self)
            return True
        return False

    def run(self, until: Optional[float] = None, max_events: int = 50_000_000) -> None:
        """Drain the event queue, optionally stopping at time ``until``.

        When ``until`` is given the clock is advanced to exactly ``until``
        even if the queue drains early, so post-run measurements line up
        across scenarios.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        try:
            # One fused peek/pop loop: this dispatches every event in the
            # simulation, so its only per-event test is one compare against
            # ``stop``, the next event count that needs attention: the
            # max_events guard or an attached recorder's next cadence mark.
            # With a recorder, the first event stops so tick() can name
            # its mark.  tick() only reads simulator state, so runs with
            # and without a recorder are identical.
            heap = self._heap  # safe: _compact() rebuilds it in place
            pop = heapq.heappop
            limit = self.events_processed + max_events
            telemetry = self.telemetry
            stop = limit + 1 if telemetry is None else self.events_processed + 1
            fire = self._fire
            while heap:
                when, _seq, event = heap[0]
                if event.cancelled:
                    pop(heap)
                    event._sim = None
                    self._cancelled_in_heap -= 1
                    continue
                if until is not None and when > until:
                    break
                pop(heap)
                event._sim = None
                self._now = when
                self.events_processed += 1
                fire(event)
                if self.events_processed >= stop:
                    if self.events_processed > limit:
                        raise SimulationError(
                            f"exceeded max_events={max_events}; runaway schedule?"
                        )
                    stop = min(limit + 1, telemetry.tick(self))
            if until is not None and self._now < until:
                self._now = until
            if telemetry is not None:
                telemetry.run_end(self)
        finally:
            self._running = False

    def _peek(self) -> Optional[Event]:
        heap = self._heap
        while heap and heap[0][2].cancelled:
            self._detach(heapq.heappop(heap)[2])
        return heap[0][2] if heap else None

    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued."""
        return len(self._heap) - self._cancelled_in_heap

    def next_event_time(self) -> Optional[float]:
        """Timestamp of the next live event, or ``None`` when idle.

        The conservative-lookahead coordinator polls this between windows
        to pick the global safe horizon (:mod:`repro.sim.partition`).
        """
        event = self._peek()
        return event.time if event is not None else None

    def advance_to(self, when: float) -> None:
        """Fire everything due at or before ``when``, then set the clock there.

        External ingestion (the replay engine) drives the clock from
        *trace* timestamps rather than scheduled events; this keeps any
        scheme timers (probe timeouts, periodic sweeps) firing in step
        with the ingested stream.  The common case — nothing pending
        before ``when`` — is a bare clock assignment, no heap traffic.
        """
        if when < self._now:
            raise ClockError(
                f"cannot advance to t={when} before current time t={self._now}"
            )
        event = self._peek() if self._heap else None
        if event is not None and event.time <= when:
            self.run(until=when)
        else:
            self._now = when

    def release(self) -> None:
        """Drop every queued event and open batch.

        A finished run's timers still point at the devices that armed
        them, and the devices point back at their simulator.  Dropping
        the queue breaks those cycles, and so does cutting each queued
        event's action, for timers a device or a periodic task still
        holds.  A released topology is then freed by reference counting
        (see :meth:`repro.l2.topology.Lan.release`).
        """
        for _when, _seq, event in self._heap:
            event._sim = None
            if not isinstance(event, _Flush):
                event.action = None
        self._heap.clear()
        self._open_batches.clear()
        self._cancelled_in_heap = 0

    @property
    def heap_depth(self) -> int:
        """Raw heap length, cancelled entries included (telemetry view:
        ``heap_depth - pending()`` is the lazily-deleted backlog)."""
        return len(self._heap)

    def iter_pending(self) -> Iterator[Event]:
        """Yield live queued events in firing order (for diagnostics)."""
        for _when, _seq, event in sorted(self._heap, key=lambda e: (e[0], e[1])):
            if not event.cancelled:
                yield event

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Simulator(now={self._now:.6f}, pending={self.pending()}, "
            f"processed={self.events_processed})"
        )
