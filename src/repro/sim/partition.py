"""Partitioned simulation: per-domain event loops + conservative lookahead.

A single :class:`~repro.sim.simulator.Simulator` dispatches every event in
the topology through one heap, which caps a campus-scale scenario at one
core and one giant queue.  This module splits the simulation by switch
domain:

* a :class:`Partition` is a full event engine (it *is* a ``Simulator`` —
  the tuple-keyed heap and the fused run loop now serve per-domain) that
  additionally owns the switches/hosts/links of its domain;
* a :class:`Boundary` is the cross-partition cable: it mimics
  :class:`~repro.l2.device.Link`'s transmit surface and computes arrival
  times with the same :func:`~repro.l2.device.wire_delay` (so they are
  float-identical to a single-simulator run) but, instead of scheduling
  directly, it posts a timestamped :class:`Envelope` to the coordinator;
* a :class:`ShardedSimulator` advances all partitions in **conservative
  lookahead windows**: every boundary latency is at least ``lookahead``
  seconds, so no frame sent during a window ``[t, t + lookahead]`` can
  arrive inside it — partitions run the window independently, then
  envelopes are flushed into their destination heaps before the next
  window opens.  No null messages, no rollback.

Determinism contract: each partition derives its RNG streams from the
same ``(seed, name)`` scheme as an unsharded simulator, device names are
unique across the fabric, and envelope flushes reuse the exact batched /
per-event delivery mechanics of :class:`~repro.l2.device.Link` — so a
fixed-seed run produces identical frame timestamps, CAM state, and scheme
alerts whether it is sharded or not (``tests/test_shard_equivalence.py``
pins this property).

Process sharding reuses the ``repro.campaign`` machinery: partitions are
grouped into fork workers, window barriers run over pipes, and each
worker ships home its ``REGISTRY.delta`` (whose ``perf`` section carries
the wire fast-path counts) exactly like a campaign task's ``_obs``
payload.  Telemetry and heartbeats are per
shard: a worker ticks the attached recorder against a view of its own
partitions only, and writes its own heartbeat file.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.errors import SimulationError, TopologyError
from repro.l2.device import cable, wire_delay
from repro.obs.live import default_recorder as _default_recorder
from repro.obs.registry import REGISTRY
from repro.sim.simulator import Simulator

__all__ = [
    "Boundary",
    "Envelope",
    "Partition",
    "ShardedSimulator",
]

#: Pipe poll budget for one window barrier; a shard silent this long is
#: treated as dead (matches the campaign runner's per-task watchdog
#: philosophy: fail loudly instead of hanging the coordinator).
_SHARD_TIMEOUT = 300.0


class Envelope(NamedTuple):
    """One cross-partition frame in flight.

    Addressing is by name + port index (not object reference) so an
    envelope survives a pickle hop between shard processes unchanged.
    """

    when: float
    partition: str
    device: str
    port: int
    payload: bytes


class Partition(Simulator):
    """One switch domain: an event engine that owns its devices.

    Behaves exactly like a standalone :class:`Simulator` (same heap, same
    fused run loop, same seeded streams), which is what keeps fixed-seed
    single-partition runs byte-identical to the pre-sharding engine.  The
    additions are a name and a device registry used to resolve envelope
    addresses arriving from other partitions.
    """

    def __init__(
        self, name: str, seed: int = 0, batching: Optional[bool] = None
    ) -> None:
        super().__init__(seed=seed, batching=batching)
        self.name = name
        #: Devices of this domain by name (switches, hosts, routers).
        self.devices: Dict[str, object] = {}

    def register(self, device):
        """Claim ``device`` for this partition (needed for envelope routing)."""
        existing = self.devices.get(device.name)
        if existing is not None and existing is not device:
            raise TopologyError(
                f"partition {self.name!r} already has a device named "
                f"{device.name!r}"
            )
        self.devices[device.name] = device
        return device

    def device(self, name: str):
        try:
            return self.devices[name]
        except KeyError:
            raise TopologyError(
                f"partition {self.name!r} has no device {name!r}"
            ) from None

    def release(self) -> None:
        """Drop the queue and the device registry (each device points
        back at its partition)."""
        super().release()
        self.devices.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Partition({self.name!r}, now={self._now:.6f}, "
            f"devices={len(self.devices)}, pending={self.pending()})"
        )


class _Endpoint(NamedTuple):
    """One side of a boundary: the partition and the port's stable address."""

    partition: Partition
    port: object
    device: str
    index: int


class Boundary:
    """A cross-partition link.

    Duck-types the transmit half of :class:`~repro.l2.device.Link` (ports
    call ``link.carry`` / ``link.carry_batch``), computes arrival times
    with Link's own :func:`~repro.l2.device.wire_delay`, and posts
    envelopes to the coordinator instead of scheduling — the destination
    partition schedules the delivery itself at flush time, through the
    same ``coalesce`` entry a local link uses.

    Boundaries carry no fault hooks and no trace recorder: impairments
    and sniffers belong on intra-domain links (campus spine links are
    clean trunks).  ``latency`` must be >= the coordinator's lookahead,
    which holds by construction since the lookahead is derived as the
    minimum boundary latency.
    """

    def __init__(
        self,
        coordinator: "ShardedSimulator",
        a: _Endpoint,
        b: _Endpoint,
        latency: float,
        rate_bps: float,
    ) -> None:
        if latency <= 0:
            raise TopologyError(
                f"boundary latency must be positive (it is the lookahead "
                f"window), got {latency}"
            )
        if rate_bps <= 0:
            raise TopologyError(f"non-positive rate: {rate_bps}")
        for end in (a, b):
            if end.port.attached:
                raise TopologyError(f"{end.port.name} is already attached")
        self._coordinator = coordinator
        self.a = a
        self.b = b
        self.latency = latency
        self.rate_bps = rate_bps
        self._seconds_per_byte = 8.0 / rate_bps
        self.frames_carried = 0
        self.bytes_carried = 0
        cable(a.port, b.port, self)

    def _ends(self, sender) -> Tuple[_Endpoint, _Endpoint]:
        if sender is self.a.port:
            return self.a, self.b
        if sender is self.b.port:
            return self.b, self.a
        raise TopologyError(f"{sender.name} is not an endpoint of this boundary")

    def carry(self, sender, data: bytes) -> None:
        """Post ``data`` toward the opposite partition as an envelope."""
        src, dst = self._ends(sender)
        self.frames_carried += 1
        self.bytes_carried += len(data)
        # Evaluated against the *sending* partition's clock, as Link.carry
        # does through Simulator.coalesce: now + delay.
        when = src.partition.now + wire_delay(
            self.latency, len(data), self._seconds_per_byte
        )
        self._coordinator._post(
            Envelope(when, dst.partition.name, dst.device, dst.index, bytes(data))
        )

    def carry_batch(self, sender, datas) -> None:
        """Batch egress: one envelope per frame, in batch (== wire) order."""
        src, dst = self._ends(sender)
        self.frames_carried += len(datas)
        self.bytes_carried += sum(map(len, datas))
        now = src.partition.now
        latency = self.latency
        spb = self._seconds_per_byte
        post = self._coordinator._post
        name = dst.partition.name
        device = dst.device
        index = dst.index
        for data in datas:
            when = now + wire_delay(latency, len(data), spb)
            post(Envelope(when, name, device, index, bytes(data)))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Boundary({self.a.partition.name}:{self.a.port.name} <-> "
            f"{self.b.partition.name}:{self.b.port.name}, "
            f"latency={self.latency})"
        )


class _ShardView:
    """A shard worker's view of the fabric: its own partitions only.

    Handed to the telemetry recorder inside fork workers so per-shard
    snapshots aggregate the partitions that shard actually advances,
    instead of summing in stale copies of everyone else's heaps.
    """

    def __init__(self, owned: List[Partition]) -> None:
        self._owned = owned

    @property
    def now(self) -> float:
        return min((p.now for p in self._owned), default=0.0)

    @property
    def events_processed(self) -> int:
        return sum(p.events_processed for p in self._owned)

    def pending(self) -> int:
        return sum(p.pending() for p in self._owned)

    @property
    def heap_depth(self) -> int:
        return sum(p.heap_depth for p in self._owned)

    def heap_depths(self) -> Dict[str, int]:
        return {p.name: p.heap_depth for p in self._owned}


class ShardedSimulator:
    """Coordinator: conservative-lookahead advance over named partitions.

    Parameters
    ----------
    seed:
        Shared by every partition; RNG streams stay keyed by ``(seed,
        name)``, so a component draws the same sequence regardless of
        which partition (or how many) it lives in.
    batching:
        Per-partition batched data plane flag (``None`` = process default).
    lookahead:
        Explicit safe-window override.  Must not exceed the minimum
        boundary latency; ``None`` (default) derives exactly that
        minimum.
    """

    def __init__(
        self,
        seed: int = 0,
        batching: Optional[bool] = None,
        lookahead: Optional[float] = None,
    ) -> None:
        self.seed = seed
        self.batching = batching
        self.partitions: Dict[str, Partition] = {}
        self.boundaries: List[Boundary] = []
        self._explicit_lookahead = lookahead
        self._outbox: List[Envelope] = []
        self.windows = 0
        self.envelopes_routed = 0
        #: Set by a process-sharded run: (events, now) as reported by the
        #: workers — the parent's partition objects are pre-fork copies.
        self._remote_totals: Optional[Tuple[int, float]] = None
        self.telemetry = None
        recorder = _default_recorder()
        if recorder is not None:
            recorder.attach(self)

    # ------------------------------------------------------------------
    # Topology construction
    # ------------------------------------------------------------------
    def add_partition(self, name: str) -> Partition:
        if name in self.partitions:
            raise TopologyError(f"duplicate partition name {name!r}")
        partition = Partition(name, seed=self.seed, batching=self.batching)
        # Partitions are sampled through the coordinator's aggregate view
        # (sum + per-partition breakdown); detach the per-sim recorder the
        # Simulator constructor may have auto-attached.
        if partition.telemetry is not None:
            partition.telemetry.detach(partition)
        self.partitions[name] = partition
        return partition

    def partition_of(self, device) -> Partition:
        for partition in self.partitions.values():
            if partition.devices.get(device.name) is device:
                return partition
        raise TopologyError(f"{device.name!r} is not registered in any partition")

    def connect(
        self,
        port_a,
        port_b,
        latency: float,
        rate_bps: float = 100e6,
    ) -> Boundary:
        """Join two ports of *different* partitions with a boundary link.

        Both ports' devices must already be registered
        (:meth:`Partition.register`) so envelopes can be addressed by
        ``(partition, device, port)`` name across process hops.
        """
        end_a = self._endpoint(port_a)
        end_b = self._endpoint(port_b)
        if end_a.partition is end_b.partition:
            raise TopologyError(
                f"{port_a.name} and {port_b.name} are both in partition "
                f"{end_a.partition.name!r}; use a plain Link inside a domain"
            )
        boundary = Boundary(self, end_a, end_b, latency=latency, rate_bps=rate_bps)
        self.boundaries.append(boundary)
        return boundary

    def _endpoint(self, port) -> _Endpoint:
        device = port.device
        partition = self.partition_of(device)
        return _Endpoint(partition, port, device.name, port.index)

    def release(self) -> None:
        """Release every partition and detach the boundaries from this
        coordinator, breaking the cycles between them."""
        for partition in self.partitions.values():
            partition.release()
        for boundary in self.boundaries:
            boundary._coordinator = None

    # ------------------------------------------------------------------
    # Aggregate clock/telemetry surface (sim-alike for the recorder)
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Conservative frontier: the clock of the furthest-behind partition."""
        if self._remote_totals is not None:
            return self._remote_totals[1]
        return min((p.now for p in self.partitions.values()), default=0.0)

    @property
    def events_processed(self) -> int:
        if self._remote_totals is not None:
            return self._remote_totals[0]
        return sum(p.events_processed for p in self.partitions.values())

    def pending(self) -> int:
        return sum(p.pending() for p in self.partitions.values())

    @property
    def heap_depth(self) -> int:
        return sum(p.heap_depth for p in self.partitions.values())

    def heap_depths(self) -> Dict[str, int]:
        """Per-partition raw heap length — the telemetry breakdown."""
        return {name: p.heap_depth for name, p in self.partitions.items()}

    @property
    def lookahead(self) -> float:
        """The safe window: min boundary latency (or the explicit override)."""
        if not self.boundaries:
            if self._explicit_lookahead is not None:
                return self._explicit_lookahead
            raise SimulationError(
                "no boundaries to derive a lookahead from; pass lookahead="
            )
        floor = min(b.latency for b in self.boundaries)
        if self._explicit_lookahead is None:
            return floor
        if self._explicit_lookahead > floor:
            raise SimulationError(
                f"lookahead {self._explicit_lookahead} exceeds the minimum "
                f"boundary latency {floor}; frames could arrive inside a window"
            )
        return self._explicit_lookahead

    # ------------------------------------------------------------------
    # Envelope routing
    # ------------------------------------------------------------------
    def _post(self, envelope: Envelope) -> None:
        """Called by boundaries mid-window; flushed at the barrier."""
        self._outbox.append(envelope)

    def _deliver(self, envelope: Envelope) -> None:
        """Schedule one envelope into its destination partition.

        Reuses the exact Link delivery mechanics — ``coalesce_at`` keyed on
        the precomputed absolute ``(when, port)``, on whichever plane the
        destination runs — so a cross-partition frame is indistinguishable,
        timestamp and batch shape included, from one that crossed a local
        link.
        """
        partition = self.partitions[envelope.partition]
        port = partition.device(envelope.device).ports[envelope.port]
        self.envelopes_routed += 1
        partition.coalesce_at(
            envelope.when, port, envelope.payload, name="boundary.carry"
        )

    def _flush_outbox(self) -> None:
        outbox = self._outbox
        if not outbox:
            return
        self._outbox = []
        for envelope in outbox:
            self._deliver(envelope)

    # ------------------------------------------------------------------
    # In-process conservative-lookahead run
    # ------------------------------------------------------------------
    def run(self, until: float, max_events: int = 50_000_000) -> None:
        """Advance every partition to exactly ``until``.

        Window loop: find the earliest pending event across partitions,
        run everyone to ``min(until, t_min + lookahead)``, flush the
        envelopes generated during the window (all of which arrive at or
        after the window end — that is what the lookahead guarantees),
        repeat.  Partitions with nothing to do skip ahead for free.
        """
        parts = list(self.partitions.values())
        if not parts:
            raise SimulationError("no partitions to run")
        if len(parts) == 1 and not self.boundaries:
            parts[0].run(until=until, max_events=max_events)
            if self.telemetry is not None:
                self.telemetry.run_end(self)
            return
        lookahead = self.lookahead
        while True:
            # Flush first: envelopes may predate the run (frames sent at
            # construction time, before any window opened), and every
            # queued envelope's arrival is >= the last window end, i.e.
            # schedulable on its destination's clock.  Flushing here also
            # lets the queued arrivals participate in picking t_min.
            self._flush_outbox()
            t_min = None
            for p in parts:
                t = p.next_event_time()
                if t is not None and (t_min is None or t < t_min):
                    t_min = t
            if t_min is None or t_min > until:
                break
            window_end = min(until, t_min + lookahead)
            for p in parts:
                p.run(until=window_end, max_events=max_events)
            self.windows += 1
            if self.telemetry is not None:
                self.telemetry.tick(self)
        # No event <= `until` remains and the outbox is empty (flushed
        # before the break; the drain below fires nothing, it only pins
        # every clock to exactly `until` so post-run measurements line up
        # across partitions and with an unsharded run).
        for p in parts:
            p.run(until=until, max_events=max_events)
        if self.telemetry is not None:
            self.telemetry.run_end(self)

    # ------------------------------------------------------------------
    # Process-sharded run (fork worker pool, campaign-style delta merge)
    # ------------------------------------------------------------------
    def run_sharded(
        self,
        until: float,
        jobs: int = 2,
        heartbeat_dir=None,
    ) -> Dict[str, object]:
        """Advance to ``until`` with partitions sharded over ``jobs`` forks.

        The window barrier runs over pipes: the parent picks the global
        horizon from the shards' reported next-event times (plus any
        envelopes still in flight), broadcasts the window, routes the
        envelopes each shard emitted to the shards owning their
        destination partitions, and repeats.  On finish every worker
        ships its ``REGISTRY.delta`` home — the wire fast-path counts
        ride along in its ``perf`` section — exactly like a
        campaign ``_obs`` payload, so parent-side metrics reflect the
        whole fabric with no double counting.

        Falls back to the in-process loop when ``jobs <= 1``, when there
        are fewer partitions than shards would help with, or on platforms
        without ``fork``.  Returns a summary dict (events, windows,
        shards, envelopes).
        """
        from repro.campaign.runner import _fork_context

        import multiprocessing

        parts = list(self.partitions.values())
        if not parts:
            raise SimulationError("no partitions to run")
        ctx = _fork_context()
        # Inside a daemonic campaign worker, forking again is forbidden —
        # the task already has a process of its own; the in-process window
        # loop is the same engine minus the pipes.
        if (
            jobs <= 1
            or len(parts) < 2
            or ctx is None
            or multiprocessing.current_process().daemon
        ):
            self.run(until)
            return {
                "events": self.events_processed,
                "windows": self.windows,
                "shards": 1,
                "envelopes": self.envelopes_routed,
            }
        jobs = min(jobs, len(parts))
        lookahead = self.lookahead
        groups: List[List[Partition]] = [[] for _ in range(jobs)]
        for i, p in enumerate(parts):
            groups[i % jobs].append(p)
        shard_of = {
            p.name: i for i, group in enumerate(groups) for p in group
        }
        # Envelopes posted before the run (frames sent at construction
        # time) must be routed by the parent — drained *before* the fork
        # so workers inherit an empty outbox.
        queued: List[List[Envelope]] = [[] for _ in range(jobs)]
        for envelope in self._outbox:
            queued[shard_of[envelope.partition]].append(envelope)
        self._outbox = []

        workers = []
        try:
            for i, group in enumerate(groups):
                parent_conn, child_conn = ctx.Pipe()
                hb_path = None
                if heartbeat_dir is not None:
                    from pathlib import Path

                    hb_path = Path(heartbeat_dir) / f"shard-{i}.heartbeat.json"
                proc = ctx.Process(
                    target=self._shard_worker,
                    args=([p.name for p in group], child_conn, hb_path),
                )
                proc.start()
                child_conn.close()
                workers.append((proc, parent_conn))

            next_times: List[Optional[float]] = [
                min(
                    (t for t in (p.next_event_time() for p in group) if t is not None),
                    default=None,
                )
                for group in groups
            ]
            windows = 0
            while True:
                t_min: Optional[float] = None
                for i in range(jobs):
                    candidates = [next_times[i]] + [e.when for e in queued[i]]
                    for t in candidates:
                        if t is not None and (t_min is None or t < t_min):
                            t_min = t
                if t_min is None or t_min > until:
                    break
                window_end = min(until, t_min + lookahead)
                for i, (_proc, conn) in enumerate(workers):
                    conn.send(("window", window_end, queued[i]))
                    queued[i] = []
                for i, (proc, conn) in enumerate(workers):
                    kind, *rest = self._recv(proc, conn)
                    if kind == "error":
                        raise SimulationError(f"shard {i} failed: {rest[0]}")
                    next_t, outgoing = rest
                    next_times[i] = next_t
                    self.envelopes_routed += len(outgoing)
                    for envelope in outgoing:
                        queued[shard_of[envelope.partition]].append(envelope)
                windows += 1

            events = 0
            for i, (proc, conn) in enumerate(workers):
                conn.send(("finish", until, queued[i]))
                queued[i] = []
            for i, (proc, conn) in enumerate(workers):
                kind, payload = self._recv(proc, conn)
                if kind == "error":
                    raise SimulationError(f"shard {i} failed: {payload}")
                events += payload["events"]
                REGISTRY.merge(payload["obs"])
            self._remote_totals = (events, until)
            self.windows += windows
            if self.telemetry is not None:
                self.telemetry.run_end(self)
            return {
                "events": events,
                "windows": windows,
                "shards": jobs,
                "envelopes": self.envelopes_routed,
            }
        finally:
            for proc, conn in workers:
                conn.close()
                proc.join(timeout=5.0)
                if proc.is_alive():  # pragma: no cover - hung shard
                    proc.terminate()
                    proc.join(timeout=5.0)

    @staticmethod
    def _recv(proc, conn):
        if not conn.poll(_SHARD_TIMEOUT):
            raise SimulationError(
                f"shard (pid {proc.pid}) silent for {_SHARD_TIMEOUT}s at a "
                "window barrier"
            )
        return conn.recv()

    def _shard_worker(self, names: List[str], conn, heartbeat_path) -> None:
        """Fork-worker body: advance the owned partitions window by window."""
        owned = [self.partitions[name] for name in names]
        view = _ShardView(owned)
        before = REGISTRY.snapshot()
        heartbeat = None
        if heartbeat_path is not None:
            from repro.obs.watchdog import Heartbeat

            try:
                heartbeat = Heartbeat(
                    heartbeat_path,
                    name=f"shard:{','.join(names)}",
                ).start()
            except OSError:  # pragma: no cover - heartbeat dir vanished
                heartbeat = None
        try:
            while True:
                command = conn.recv()
                kind = command[0]
                if kind == "window":
                    _, window_end, incoming = command
                    for envelope in incoming:
                        self._deliver(envelope)
                    for p in owned:
                        p.run(until=window_end)
                    outgoing = self._outbox
                    self._outbox = []
                    next_t = min(
                        (
                            t
                            for t in (p.next_event_time() for p in owned)
                            if t is not None
                        ),
                        default=None,
                    )
                    conn.send(("done", next_t, outgoing))
                    if self.telemetry is not None:
                        self.telemetry.tick(view)
                elif kind == "finish":
                    _, final_until, incoming = command
                    for envelope in incoming:
                        self._deliver(envelope)
                    for p in owned:
                        p.run(until=final_until)
                    if self.telemetry is not None:
                        self.telemetry.run_end(view)
                    conn.send(
                        (
                            "result",
                            {
                                "events": view.events_processed,
                                "now": final_until,
                                "obs": REGISTRY.delta(before),
                            },
                        )
                    )
                    return
                else:  # pragma: no cover - protocol guard
                    raise SimulationError(f"unknown shard command {kind!r}")
        except (EOFError, KeyboardInterrupt):  # pragma: no cover
            return
        except Exception as exc:  # noqa: BLE001 - ship the failure home
            try:
                conn.send(("error", f"{type(exc).__name__}: {exc}"))
            except (BrokenPipeError, OSError):  # pragma: no cover
                pass
        finally:
            if heartbeat is not None:
                try:
                    heartbeat.stop()
                except Exception:  # pragma: no cover  # noqa: BLE001
                    pass
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass

    def rng_stream(self, name: str):
        """Coordinator-level stream (same keying as any partition's)."""
        import random

        return random.Random(f"{self.seed}/{name}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardedSimulator(partitions={len(self.partitions)}, "
            f"boundaries={len(self.boundaries)}, now={self.now:.6f}, "
            f"windows={self.windows})"
        )
