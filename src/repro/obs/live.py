"""Live run telemetry — a time series of snapshots from a *running* sim.

The PR 3 observability layer reports after a run finishes; this module
watches a run while it happens.  A :class:`TelemetryRecorder` attached to
a simulator samples, on a configurable event-count or wall-clock cadence:

* simulator progress — sim-clock, events fired, live heap depth;
* the per-window delta of the registry's ``perf`` counts (so each
  snapshot carries the batch/fallback ratio of *that window*, not the
  whole process), subtracted by the registry's own delta rule;
* optionally the per-window :data:`~repro.obs.registry.REGISTRY` delta.

Samples land in a bounded ring (:attr:`TelemetryRecorder.snapshots`) and,
when an output path is given, are streamed incrementally as JSONL — one
flushed line per snapshot, so a stalled run still leaves a readable
series behind.  The writer is fork-aware: a campaign worker inheriting
the parent's recorder reopens the file in append mode on first write, and
every line carries ``pid`` so readers can split interleaved series.

Zero-cost contract: the simulator's one event loop
(:meth:`repro.sim.simulator.Simulator.run`) calls :meth:`TelemetryRecorder.tick`
only when the event count reaches the mark ``tick`` last returned, so an
untelemetered run pays nothing and a telemetered one pays once per
cadence stride.  Attachment only happens while a process-default
recorder is installed (:func:`install` / :func:`session`).
``repro bench --check`` gates this.

Cross-thread progress sharing happens through :data:`BEACON`, a tiny
lock-free progress block the recorder refreshes on every cadence stride;
the watchdog's heartbeat thread reads it to publish sim-clock progress
without touching the simulator from another thread.
"""

from __future__ import annotations

import json
import os
import time
from collections import deque
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Deque, Dict, Iterator, List, Optional, Union

from repro.errors import ObsError
from repro.obs.registry import REGISTRY, subtract_counts

__all__ = [
    "BEACON",
    "DEFAULT_CADENCE_EVENTS",
    "ProgressBeacon",
    "REQUIRED_KEYS",
    "TelemetryRecorder",
    "WALL_CHECK_STRIDE",
    "default_recorder",
    "install",
    "read_series",
    "session",
    "uninstall",
    "validate_snapshot",
]

#: Default sampling cadence when neither cadence is given: one snapshot
#: every N simulator events.
DEFAULT_CADENCE_EVENTS = 5_000

#: With a wall-clock cadence the recorder still only *checks* the clock
#: every N events, so the hot loop never calls ``time.monotonic`` more
#: than once per stride.
WALL_CHECK_STRIDE = 512

#: Keys every telemetry snapshot must carry (the CI artifact validator
#: and :func:`validate_snapshot` both enforce this set).
REQUIRED_KEYS = frozenset(
    {"seq", "pid", "reason", "t_wall", "t_sim", "events", "pending", "batch", "perf"}
)


class ProgressBeacon:
    """Lock-free progress block shared with heartbeat/watchdog threads.

    Plain attribute stores are atomic enough under the GIL for a
    monitoring consumer: a heartbeat thread reading a beacon mid-update
    sees a slightly torn but monotone view, never a crash.
    """

    __slots__ = ("pid", "t_sim", "events", "pending", "wall")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.pid = 0
        self.t_sim = 0.0
        self.events = 0
        self.pending = 0
        self.wall = 0.0

    def update(self, sim) -> None:
        self.pid = os.getpid()
        self.t_sim = sim.now
        self.events = sim.events_processed
        self.pending = sim.pending()
        self.wall = time.time()

    def snapshot(self) -> Dict[str, float]:
        return {
            "pid": self.pid,
            "t_sim": self.t_sim,
            "events": self.events,
            "pending": self.pending,
            "wall": self.wall,
        }


#: The process-wide beacon (one live simulator at a time is the common
#: case; with several, the most recently ticked one wins — fine for a
#: liveness signal).
BEACON = ProgressBeacon()


class TelemetryRecorder:
    """Samples a running simulator into a bounded ring + JSONL stream.

    Parameters
    ----------
    cadence_events:
        Snapshot every N processed events.  Mutually composable with
        ``cadence_wall``; when both are ``None`` this defaults to
        :data:`DEFAULT_CADENCE_EVENTS`.
    cadence_wall:
        Snapshot at most every N wall-clock seconds (checked every
        :data:`WALL_CHECK_STRIDE` events so the hot loop stays off the
        OS clock).
    capacity:
        Ring size; older snapshots are dropped (counted in
        :attr:`dropped`) once full.  The JSONL stream is unbounded.
    out:
        Optional JSONL path.  Opened lazily in append mode and reopened
        after a fork, so campaign workers inherit a working stream.
    include_metrics:
        Attach the per-window ``REGISTRY.delta`` to each snapshot.
        Disable for beacon-only recorders in campaign workers.
    """

    def __init__(
        self,
        cadence_events: Optional[int] = None,
        cadence_wall: Optional[float] = None,
        capacity: int = 512,
        out: Union[str, Path, None] = None,
        include_metrics: bool = True,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if cadence_events is not None and cadence_events < 1:
            raise ObsError(f"cadence_events must be >= 1, got {cadence_events}")
        if cadence_wall is not None and cadence_wall <= 0:
            raise ObsError(f"cadence_wall must be positive, got {cadence_wall}")
        if capacity < 1:
            raise ObsError(f"capacity must be >= 1, got {capacity}")
        if cadence_events is None and cadence_wall is None:
            cadence_events = DEFAULT_CADENCE_EVENTS
        self.cadence_events = cadence_events
        self.cadence_wall = cadence_wall
        self.snapshots: Deque[Dict[str, object]] = deque(maxlen=capacity)
        #: Ring evictions (the JSONL stream never drops).
        self.dropped = 0
        self.seq = 0
        #: JSONL lines written by *this* process.
        self.written = 0
        self.include_metrics = include_metrics
        self._out_path = Path(out) if out is not None else None
        self._fh = None
        self._fh_pid: Optional[int] = None
        self._clock = clock
        self._t0 = clock()
        #: How many events pass between cadence checks in tick().
        self._stride = cadence_events if cadence_events is not None else WALL_CHECK_STRIDE
        self._next_mark = 0
        self._last_sample_wall = float("-inf")
        self._last_sample_events = -1
        self._perf_before: Optional[Dict[str, float]] = None
        self._reg_before: Optional[Dict[str, object]] = None

    # ------------------------------------------------------------------
    # Attachment
    # ------------------------------------------------------------------
    def attach(self, sim) -> None:
        """Hook this recorder onto ``sim`` and emit an ``attach`` marker.

        The marker gives every simulator (campaign trials build several)
        a boundary row in the series even if the run is shorter than one
        cadence stride.
        """
        sim.telemetry = self
        self._next_mark = sim.events_processed + self._stride
        self.sample(sim, reason="attach")

    def detach(self, sim) -> None:
        if getattr(sim, "telemetry", None) is self:
            sim.telemetry = None

    # ------------------------------------------------------------------
    # Hot-side entry points (called from the simulator's run loop)
    # ------------------------------------------------------------------
    def tick(self, sim) -> int:
        """Cadence check; returns the event count of the next stride mark.

        A no-op below the mark, so callers may tick more often than the
        mark asks (``step()`` ticks every event); ``Simulator.run`` ticks
        only when the returned mark is reached.
        """
        if sim.events_processed < self._next_mark:
            return self._next_mark
        self._next_mark = sim.events_processed + self._stride
        BEACON.update(sim)
        wall = self._clock()
        if self.cadence_wall is None or (
            wall - self._last_sample_wall >= self.cadence_wall
        ):
            self.sample(sim, reason="cadence", wall=wall)
        return self._next_mark

    def run_end(self, sim) -> None:
        """Close out a ``run()`` with a final sample if anything fired."""
        if sim.events_processed > self._last_sample_events:
            self.sample(sim, reason="run-end")

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def _ensure_baseline(self) -> None:
        if self._perf_before is None:
            self._perf_before = REGISTRY.collect("perf")
            if self.include_metrics:
                self._reg_before = REGISTRY.snapshot()

    def sample(self, sim, reason: str = "manual", wall: Optional[float] = None) -> Dict[str, object]:
        """Take one snapshot now; returns the recorded dict."""
        self._ensure_baseline()
        if wall is None:
            wall = self._clock()
        perf_now = REGISTRY.collect("perf")
        perf_delta = subtract_counts(perf_now, self._perf_before)
        self._perf_before = perf_now
        flushes = perf_delta.get("batch_flushes", 0)
        items = perf_delta.get("batched_items", 0)
        snap: Dict[str, object] = {
            "seq": self.seq,
            "pid": os.getpid(),
            "reason": reason,
            "t_wall": round(wall - self._t0, 6),
            "t_sim": sim.now,
            "events": sim.events_processed,
            "pending": sim.pending(),
            "heap_depth": sim.heap_depth,
        }
        # A partitioned fabric (repro.sim.partition) exposes per-partition
        # heaps; its aggregate heap_depth is already the sum — record the
        # breakdown next to it so dashboards can spot a lopsided shard.
        depths = getattr(sim, "heap_depths", None)
        if callable(depths):
            snap["heap_depth_by_partition"] = depths()
        snap.update({
            "batch": {
                "flushes": flushes,
                "items": items,
                # Fraction of batched items that rode along with an
                # already-scheduled flush — 0.0 on the per-frame plane.
                "coalesce_rate": round((items - flushes) / items, 4) if items else 0.0,
            },
            "perf": perf_delta,
        })
        if self.include_metrics:
            snap["metrics"] = REGISTRY.delta(self._reg_before)
        REGISTRY.counter(
            "telemetry_snapshots_total",
            "Live telemetry snapshots recorded",
            labels=("reason",),
        ).labels(reason=reason).inc()
        if self.include_metrics:
            # Re-baseline *after* our own counter bump so the recorder
            # never pollutes the next window's metrics delta.
            self._reg_before = REGISTRY.snapshot()
        ring = self.snapshots
        if ring.maxlen is not None and len(ring) == ring.maxlen:
            self.dropped += 1
        ring.append(snap)
        self.seq += 1
        self._last_sample_wall = wall
        self._last_sample_events = sim.events_processed
        BEACON.update(sim)
        self._write(snap)
        return snap

    # ------------------------------------------------------------------
    # JSONL streaming
    # ------------------------------------------------------------------
    def _write(self, snap: Dict[str, object]) -> None:
        if self._out_path is None:
            return
        pid = os.getpid()
        if self._fh is None or self._fh_pid != pid:
            # First write, reopened after close(), or first write after a
            # fork: (re)open in append mode so parent and worker series
            # interleave instead of clobbering each other.
            if self._fh is not None:
                try:
                    self._fh.close()
                except OSError:  # pragma: no cover - inherited stale handle
                    pass
            self._fh = open(self._out_path, "a", encoding="utf-8")
            self._fh_pid = pid
        self._fh.write(json.dumps(snap, sort_keys=True, separators=(",", ":")) + "\n")
        self._fh.flush()
        self.written += 1

    def close(self) -> None:
        """Flush and close the JSONL stream (idempotent; a later sample
        reopens it in append mode)."""
        if self._fh is not None:
            try:
                self._fh.close()
            finally:
                self._fh = None
                self._fh_pid = None


# ----------------------------------------------------------------------
# Process-default recorder: how `Simulator.__init__` finds its telemetry
# ----------------------------------------------------------------------
_default: Optional[TelemetryRecorder] = None


def install(recorder: Optional[TelemetryRecorder]) -> Optional[TelemetryRecorder]:
    """Make ``recorder`` the process default; returns the previous one.

    Every :class:`~repro.sim.simulator.Simulator` built while a default
    is installed attaches it automatically — the hook campaign trials and
    the experiment facade use, since they construct simulators internally.
    """
    global _default
    previous = _default
    _default = recorder
    return previous


def uninstall() -> Optional[TelemetryRecorder]:
    """Clear the process default; returns what was installed."""
    return install(None)


def default_recorder() -> Optional[TelemetryRecorder]:
    return _default


@contextmanager
def session(recorder: TelemetryRecorder) -> Iterator[TelemetryRecorder]:
    """Install ``recorder`` for the duration of a block, then restore the
    previous default and flush the stream."""
    previous = install(recorder)
    try:
        yield recorder
    finally:
        install(previous)
        recorder.close()


# ----------------------------------------------------------------------
# Series validation (shared by tests and the CI artifact check)
# ----------------------------------------------------------------------
def validate_snapshot(snap: Dict[str, object]) -> None:
    """Raise :class:`ObsError` unless ``snap`` is a well-formed snapshot."""
    missing = REQUIRED_KEYS - set(snap)
    if missing:
        raise ObsError(f"telemetry snapshot missing keys {sorted(missing)}: {snap}")
    for key in ("seq", "pid", "events", "pending"):
        value = snap[key]
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise ObsError(f"telemetry snapshot {key}={value!r} is not a count")
    for key in ("t_wall", "t_sim"):
        if not isinstance(snap[key], (int, float)) or snap[key] < 0:
            raise ObsError(f"telemetry snapshot {key}={snap[key]!r} is not a time")
    if not isinstance(snap["batch"], dict) or not isinstance(snap["perf"], dict):
        raise ObsError("telemetry snapshot batch/perf sections must be dicts")


def read_series(text: str) -> List[Dict[str, object]]:
    """Parse and validate a JSONL telemetry series.

    Checks every line against :data:`REQUIRED_KEYS` and enforces that
    ``seq`` and ``t_wall`` are strictly / weakly monotone *per pid*
    (parent and fork-worker series may interleave in one file).
    Returns the parsed snapshots in file order.
    """
    snaps: List[Dict[str, object]] = []
    last_by_pid: Dict[int, Dict[str, object]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            snap = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ObsError(f"telemetry line {lineno}: invalid JSON ({exc})") from None
        validate_snapshot(snap)
        prev = last_by_pid.get(snap["pid"])
        if prev is not None:
            if snap["seq"] <= prev["seq"]:
                raise ObsError(
                    f"telemetry line {lineno}: seq {snap['seq']} not "
                    f"increasing after {prev['seq']} (pid {snap['pid']})"
                )
            if snap["t_wall"] < prev["t_wall"]:
                raise ObsError(
                    f"telemetry line {lineno}: t_wall went backwards "
                    f"({prev['t_wall']} -> {snap['t_wall']}, pid {snap['pid']})"
                )
        last_by_pid[snap["pid"]] = snap
        snaps.append(snap)
    return snaps
