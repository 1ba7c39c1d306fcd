"""Partitioned simulation: per-domain event loops + conservative lookahead.

A single :class:`~repro.sim.simulator.Simulator` dispatches every event in
the topology through one heap, which caps a campus-scale scenario at one
core and one giant queue.  This module splits the simulation by switch
domain:

* a :class:`Partition` is a full event engine (it *is* a ``Simulator`` —
  the tuple-keyed heap and the fused run loop serve per domain) that
  additionally owns the switches/hosts/links of its domain;
* a :class:`Boundary` is the cross-partition cable: it mimics
  :class:`~repro.l2.device.Link`'s transmit surface and computes each
  arrival time exactly as a link does, ``now +``
  :func:`~repro.l2.device.wire_delay`, but instead of delivering it posts
  a timestamped :class:`Envelope` to its process's outbox;
* a shard is the set of partitions one process advances.  Its one step,
  ``advance(until, incoming)``, delivers the envelopes routed to it
  through :meth:`~repro.sim.simulator.Simulator.coalesce` (the entry a
  local link uses), runs every partition to ``until`` and hands back the
  next event time and the envelopes posted meanwhile;
* a :class:`ShardedSimulator` advances the shards in **conservative
  lookahead windows**: every boundary latency is at least the lookahead,
  so no frame sent during a window ``[t, t + lookahead]`` can arrive
  inside it — shards run the window independently, then the envelopes
  are routed to the shards owning their destinations before the next
  window opens.  No null messages, no rollback.

One window loop picks the horizon, routes envelopes and counts them for
both runs.  In process (:meth:`ShardedSimulator.run`) the coordinator is
itself the one shard, owning the whole fabric.  The forked run
(:meth:`ShardedSimulator.run_sharded`) groups partitions into fork
workers, each advancing its own shard over a pipe, its windows and its
finish alike.  On finish each worker ships home its partitions' event
counts and its ``REGISTRY.delta`` (whose ``perf`` section carries the
wire fast-path counts), exactly like a campaign task's ``_obs`` payload.
A shard is also the telemetry view: a worker ticks the attached recorder
against its own shard only, and writes its own heartbeat file.

Determinism contract: each partition derives its RNG streams from the
same ``(seed, name)`` scheme as an unsharded simulator, device names are
unique across the fabric, and envelopes arrive through the same delivery
entry as a local link's frames, keyed on the same float — so a
fixed-seed run produces identical frame timestamps, CAM state, and scheme
alerts whether it is sharded or not (``tests/test_shard_equivalence.py``
pins this property).
"""

from __future__ import annotations

from pathlib import Path
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

    def __init__(self, name: str, seed: int = 0) -> None:
        super().__init__(seed=seed)
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
    call ``link.carry_batch``, their one carry entry), computes arrival
    times as a link does, ``now +`` :func:`~repro.l2.device.wire_delay`,
    and posts envelopes to ``outbox`` instead of delivering — the
    destination partition delivers each one itself, through the same
    ``coalesce`` entry a local link uses.

    Boundaries carry no fault hooks and no trace recorder: impairments
    and sniffers belong on intra-domain links (campus spine links are
    clean trunks).  The coordinator's lookahead is the minimum boundary
    latency, so every boundary's latency is at least the lookahead.
    """

    def __init__(
        self,
        outbox: List[Envelope],
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
        self._outbox = outbox
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

    def carry_batch(self, sender, datas) -> None:
        """Post frames toward the opposite partition: one envelope per
        frame, in batch (== wire) order."""
        src, dst = self._ends(sender)
        self.frames_carried += len(datas)
        self.bytes_carried += sum(map(len, datas))
        # Against the *sending* partition's clock, as Link.carry_batch.
        now = src.partition._now
        latency = self.latency
        spb = self._seconds_per_byte
        post = self._outbox.append
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


class _Shard:
    """The partitions one process advances, and their telemetry view.

    The telemetry recorder samples a shard as it samples a simulator
    (``now``, ``events_processed``, ``pending()``, ``heap_depth``), plus
    the per-partition ``heap_depths()`` breakdown.
    """

    def __init__(self, partitions: Dict[str, Partition], outbox: List[Envelope]) -> None:
        #: The partitions this shard advances, by name.
        self.partitions = partitions
        #: Where this process's boundaries post their envelopes.
        self._outbox = outbox

    @property
    def now(self) -> float:
        """Conservative frontier: the clock of the furthest-behind partition."""
        return min((p.now for p in self.partitions.values()), default=0.0)

    @property
    def events_processed(self) -> int:
        return sum(p.events_processed for p in self.partitions.values())

    def pending(self) -> int:
        return sum(pending for pending, _ in self._queues().values())

    @property
    def heap_depth(self) -> int:
        return sum(depth for _, depth in self._queues().values())

    def heap_depths(self) -> Dict[str, int]:
        """Per-partition raw heap length — the telemetry breakdown."""
        return {name: depth for name, (_, depth) in self._queues().items()}

    def _queues(self) -> Dict[str, Tuple[int, int]]:
        """Each partition's ``(pending(), heap_depth)``."""
        return {
            name: (p.pending(), p.heap_depth) for name, p in self.partitions.items()
        }

    def next_time(self) -> Optional[float]:
        """The earliest pending event time over the shard, or ``None``."""
        times = [p.next_event_time() for p in self.partitions.values()]
        return min((t for t in times if t is not None), default=None)

    def advance(
        self, until: float, incoming: List[Envelope]
    ) -> Tuple[Optional[float], List[Envelope]]:
        """Deliver ``incoming``, run every partition to ``until``, and
        return the next event time with the envelopes posted meanwhile.

        Each envelope arrives through ``coalesce`` keyed on its
        precomputed ``(when, port)``, on whichever plane the destination
        runs, so a cross-partition frame is indistinguishable, timestamp
        and batch shape included, from one that crossed a local link.
        """
        partitions = self.partitions
        for when, name, device, index, payload in incoming:
            partition = partitions[name]
            port = partition.device(device).ports[index]
            partition.coalesce(when, port, [payload], "boundary.carry")
        for partition in partitions.values():
            partition.run(until=until)
        outgoing = self._outbox[:]
        self._outbox.clear()
        return self.next_time(), outgoing


class ShardedSimulator(_Shard):
    """Coordinator: conservative-lookahead advance over named partitions.

    In process it is the one shard that owns the whole fabric, so its
    clock and telemetry surface are a shard's.

    Parameters
    ----------
    seed:
        Shared by every partition; RNG streams stay keyed by ``(seed,
        name)``, so a component draws the same sequence regardless of
        which partition (or how many) it lives in.
    """

    def __init__(self, seed: int = 0) -> None:
        super().__init__({}, [])
        self.seed = seed
        self.boundaries: List[Boundary] = []
        self.windows = 0
        self.envelopes_routed = 0
        #: Set by a forked run: the partitions here keep their pre-fork
        #: state, so the fabric cannot run again.
        self._spent = False
        #: Each partition's ``(pending(), heap_depth)`` as the forked run
        #: left it in its worker; the queues here are pre-fork copies.
        self._forked_queues: Optional[Dict[str, Tuple[int, int]]] = None
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
        partition = Partition(name, seed=self.seed)
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
        boundary = Boundary(
            self._outbox, end_a, end_b, latency=latency, rate_bps=rate_bps
        )
        self.boundaries.append(boundary)
        return boundary

    def _queues(self) -> Dict[str, Tuple[int, int]]:
        if self._forked_queues is not None:
            return self._forked_queues
        return super()._queues()

    def _endpoint(self, port) -> _Endpoint:
        device = port.device
        partition = self.partition_of(device)
        return _Endpoint(partition, port, device.name, port.index)

    def release(self) -> None:
        """Release every partition, breaking the cycles between each
        partition and its devices."""
        for partition in self.partitions.values():
            partition.release()

    @property
    def lookahead(self) -> float:
        """The safe window: the minimum boundary latency."""
        if not self.boundaries:
            raise SimulationError("no boundaries to derive a lookahead from")
        return min(b.latency for b in self.boundaries)

    # ------------------------------------------------------------------
    # The window loop, in process or over fork workers
    # ------------------------------------------------------------------
    def _windows(self, until: float, shards: List[_Shard], step) -> List[List[Envelope]]:
        """Advance ``shards`` window by window until nothing is due by
        ``until``; return the envelopes still queued for each shard.

        Each window runs from the earliest pending event or queued
        envelope, ``t_min``, to ``min(until, t_min + lookahead)``:
        ``step(window_end, queued)`` advances every shard, handing each
        its queued envelopes, and returns each shard's ``(next_time,
        outgoing)``.  Every envelope is routed and counted here, once,
        including those posted before the run (frames sent at
        construction time).  Without boundaries nothing can cross, and
        the caller's finishing step runs everything.
        """
        route = {name: i for i, shard in enumerate(shards) for name in shard.partitions}
        queued: List[List[Envelope]] = [[] for _ in shards]

        def post(envelopes: List[Envelope]) -> None:
            self.envelopes_routed += len(envelopes)
            for envelope in envelopes:
                queued[route[envelope.partition]].append(envelope)

        post(self._outbox[:])
        self._outbox.clear()
        if not self.boundaries:
            return queued
        lookahead = self.lookahead
        next_times = [shard.next_time() for shard in shards]
        while True:
            times = [t for t in next_times if t is not None]
            times += [envelope.when for box in queued for envelope in box]
            if not times or min(times) > until:
                return queued
            replies = step(min(until, min(times) + lookahead), queued)
            for box in queued:
                box.clear()
            next_times = []
            for next_time, outgoing in replies:
                next_times.append(next_time)
                post(outgoing)
            self.windows += 1

    def run(self, until: float) -> None:
        """Advance every partition to exactly ``until``, in this process.

        The coordinator is the one shard: each window is one
        :meth:`advance` step, and a last one delivers what is still
        queued (all of it arrives after ``until``) and pins every clock
        to exactly ``until``, so post-run measurements line up across
        partitions and with an unsharded run.
        """
        self._check_runnable()
        queued = self._windows(until, [self], self._window)
        self.advance(until, queued[0])
        if self.telemetry is not None:
            self.telemetry.run_end(self)

    def _check_runnable(self) -> None:
        if self._spent:
            raise SimulationError(
                "this fabric ran forked and its partitions hold their "
                "pre-fork state; build a new one to run again"
            )
        if not self.partitions:
            raise SimulationError("no partitions to run")

    def _window(self, window_end: float, queued: List[List[Envelope]]):
        reply = self.advance(window_end, queued[0])
        if self.telemetry is not None:
            self.telemetry.tick(self)
        return [reply]

    def run_sharded(
        self,
        until: float,
        jobs: int = 2,
        heartbeat_dir=None,
    ) -> Dict[str, object]:
        """Advance to ``until`` with partitions sharded over ``jobs`` forks.

        The window loop is :meth:`run`'s, with each window's step a
        barrier over pipes: every worker advances its own shard and
        reports its next event time and the envelopes it emitted.  On
        finish every worker ships home its partitions' event counts and
        its ``REGISTRY.delta`` — the wire fast-path counts ride along in
        its ``perf`` section — exactly like a campaign ``_obs`` payload,
        so parent-side metrics reflect the whole fabric with no double
        counting.

        Of the fabric itself each partition's event count, clock and
        queue state (``pending()`` and ``heap_depth``, read through
        :meth:`_queues`) come back: devices in the parent keep their
        pre-fork caches and counters, and the partitions their pre-fork
        queues.  A forked run therefore spends the fabric, and a later
        :meth:`run` or :meth:`run_sharded` raises
        :class:`SimulationError` instead of replaying those queues.

        Falls back to the in-process loop when ``jobs <= 1``, when there
        are fewer than two partitions, or on platforms without ``fork``.
        Returns a summary dict (events, windows, shards, envelopes).
        """
        from repro.campaign.runner import _fork_context

        import multiprocessing

        self._check_runnable()
        parts = list(self.partitions.values())
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
            jobs = 1
            self.run(until)
        else:
            jobs = min(jobs, len(parts))
            self._run_forked(until, jobs, heartbeat_dir, ctx)
        return {
            "events": self.events_processed,
            "windows": self.windows,
            "shards": jobs,
            "envelopes": self.envelopes_routed,
        }

    def _run_forked(self, until: float, jobs: int, heartbeat_dir, ctx) -> None:
        self._spent = True
        parts = list(self.partitions.values())
        shards = [
            _Shard({p.name: p for p in parts[i::jobs]}, self._outbox)
            for i in range(jobs)
        ]
        workers = []
        try:
            for i, shard in enumerate(shards):
                parent_conn, child_conn = ctx.Pipe()
                hb_path = None
                if heartbeat_dir is not None:
                    hb_path = Path(heartbeat_dir) / f"shard-{i}.heartbeat.json"
                proc = ctx.Process(
                    target=self._shard_worker, args=(shard, child_conn, hb_path)
                )
                proc.start()
                child_conn.close()
                workers.append((proc, parent_conn))

            def window(window_end, queued):
                return self._exchange(workers, "window", window_end, queued)

            queued = self._windows(until, shards, window)
            queues: Dict[str, Tuple[int, int]] = {}
            for states, obs in self._exchange(workers, "finish", until, queued):
                REGISTRY.merge(obs)
                # The parent's partitions are pre-fork copies: carry the
                # workers' counts, clocks and queues over for the
                # aggregate view.
                for name, (count, pending, depth) in states.items():
                    self.partitions[name].events_processed = count
                    self.partitions[name]._now = until
                    queues[name] = (pending, depth)
            self._forked_queues = {name: queues[name] for name in self.partitions}
            if self.telemetry is not None:
                self.telemetry.run_end(self)
        finally:
            for proc, conn in workers:
                conn.close()
                proc.join(timeout=5.0)
                if proc.is_alive():  # pragma: no cover - hung shard
                    proc.terminate()
                    proc.join(timeout=5.0)

    @staticmethod
    def _exchange(workers, kind: str, until: float, queued) -> List[tuple]:
        """Send every worker one step, then collect every reply."""
        for (_proc, conn), incoming in zip(workers, queued):
            conn.send((kind, until, incoming))
        replies = []
        for i, (proc, conn) in enumerate(workers):
            if not conn.poll(_SHARD_TIMEOUT):
                raise SimulationError(
                    f"shard {i} (pid {proc.pid}) silent for {_SHARD_TIMEOUT}s "
                    "at a window barrier"
                )
            status, *reply = conn.recv()
            if status == "error":
                raise SimulationError(f"shard {i} failed: {reply[0]}")
            replies.append(reply)
        return replies

    def _shard_worker(self, shard: _Shard, conn, heartbeat_path) -> None:
        """Fork-worker body: one :meth:`~_Shard.advance` step per window
        command, and one for the finish."""
        # The parent routes the envelopes posted before the run.
        self._outbox.clear()
        telemetry = self.telemetry
        before = REGISTRY.snapshot()
        heartbeat = None
        if heartbeat_path is not None:
            from repro.obs.watchdog import Heartbeat

            try:
                heartbeat = Heartbeat(
                    heartbeat_path,
                    name=f"shard:{','.join(shard.partitions)}",
                ).start()
            except OSError:  # pragma: no cover - heartbeat dir vanished
                heartbeat = None
        try:
            while True:
                kind, until, incoming = conn.recv()
                next_time, outgoing = shard.advance(until, incoming)
                if kind == "finish":
                    if telemetry is not None:
                        telemetry.run_end(shard)
                    queues = shard._queues()
                    states = {
                        name: (p.events_processed, *queues[name])
                        for name, p in shard.partitions.items()
                    }
                    conn.send(("ok", states, REGISTRY.delta(before)))
                    return
                conn.send(("ok", next_time, outgoing))
                if telemetry is not None:
                    telemetry.tick(shard)
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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardedSimulator(partitions={len(self.partitions)}, "
            f"boundaries={len(self.boundaries)}, now={self.now:.6f}, "
            f"windows={self.windows})"
        )
