"""Devices, ports and links — the physical layer of the simulated LAN.

A :class:`Device` owns :class:`Port` objects; a :class:`Link` joins exactly
two ports and carries raw frame bytes between them with a configurable
propagation latency and serialization rate.  Every link can host a
:class:`~repro.sim.trace.TraceRecorder`, which is how sniffers and the
evaluation's overhead accounting observe traffic.

The wire is also where the batched data plane engages: :meth:`Link.carry`
hands every arrival to :meth:`~repro.sim.simulator.Simulator.coalesce`,
which — when the owning simulator has ``batching`` on and tracing is off
— merges same-instant deliveries to one receiver into a single
``deliver_batch`` flush instead of one event per frame,
and :meth:`Port.transmit_batch` lets a flooding switch hand a whole
frame batch to each egress link in one call.  Fault-injection hooks on
:attr:`Link.faults` still transform every frame individually (same hook
order, same RNG draw order), so ``repro.faults`` semantics are identical
on both paths.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.errors import PortError, TopologyError
from repro.hooks import HookPoint
from repro.sim.simulator import Simulator
from repro.sim.trace import Direction, TraceRecorder

__all__ = ["Device", "Port", "Link", "cable"]

#: Default one-way propagation latency for a LAN segment, seconds.
DEFAULT_LATENCY = 50e-6
#: Default link rate, bits per second (100 Mb/s FastEthernet).
DEFAULT_RATE_BPS = 100e6


def wire_delay(
    latency: float, nbytes: int, seconds_per_byte: float, extra: float = 0.0
) -> float:
    """Seconds from transmit to arrival of an ``nbytes`` frame on a cable.

    Propagation plus serialization, plus any fault-injected ``extra``.
    Every cable (:class:`Link`, and the cross-partition
    :class:`~repro.sim.partition.Boundary`) uses this one expression, in
    this association order, so arrival timestamps are float-identical
    however a topology is split.
    """
    return latency + nbytes * seconds_per_byte + extra


def cable(a: "Port", b: "Port", link) -> None:
    """Join ``a`` and ``b`` by ``link`` (a :class:`Link`, or a
    cross-partition :class:`~repro.sim.partition.Boundary`)."""
    a.link = b.link = link
    a.peer = b
    b.peer = a
    a.device._cabled = b.device._cabled = None


class Port:
    """One attachment point on a device."""

    def __init__(self, device: "Device", index: int, name: str = "") -> None:
        self.device = device
        self.index = index
        self.name = name or f"{device.name}.eth{index}"
        self.link: Optional["Link"] = None
        self.peer: Optional["Port"] = None  # opposite end, set by Link
        self.up = True
        self.tx_frames = 0
        self.rx_frames = 0
        self.tx_bytes = 0
        self.rx_bytes = 0

    @property
    def attached(self) -> bool:
        return self.link is not None

    def transmit(self, data: bytes) -> None:
        """Send raw frame bytes out this port (no-op when down/unattached)."""
        link = self.link
        if link is None or not self.up:
            return
        self.tx_frames += 1
        self.tx_bytes += len(data)
        link.carry(self, data)

    def transmit_batch(self, datas: Sequence[bytes]) -> None:
        """Send many frames out this port in one call (flood egress)."""
        link = self.link
        if link is None or not self.up or not datas:
            return
        n = len(datas)
        self.tx_frames += n
        self.tx_bytes += len(datas[0]) if n == 1 else sum(map(len, datas))
        link.carry_batch(self, datas)

    def deliver(self, data: bytes) -> None:
        """Called by the link when a frame arrives at this port."""
        if not self.up:
            return
        self.rx_frames += 1
        self.rx_bytes += len(data)
        self.device.on_frame(self, data)

    def deliver_batch(self, datas: Sequence[bytes]) -> None:
        """Coalesced-delivery sink: a batch of frames arriving together.

        The whole batch shares one administrative state: a port that went
        down before the flush drops every frame in it, exactly as it
        would have dropped each frame arriving individually.
        """
        if not self.up:
            return
        n = len(datas)
        self.rx_frames += n
        self.rx_bytes += len(datas[0]) if n == 1 else sum(map(len, datas))
        self.device.on_frame_batch(self, datas)

    def shut(self) -> None:
        """Administratively disable the port (what port security does)."""
        self.up = False

    def no_shut(self) -> None:
        self.up = True

    def __repr__(self) -> str:
        state = "up" if self.up else "down"
        return f"Port({self.name}, {state})"


class Link:
    """A full-duplex point-to-point segment between two ports."""

    def __init__(
        self,
        sim: Simulator,
        a: Port,
        b: Port,
        latency: float = DEFAULT_LATENCY,
        rate_bps: float = DEFAULT_RATE_BPS,
        recorder: Optional[TraceRecorder] = None,
    ) -> None:
        if a is b:
            raise TopologyError("cannot link a port to itself")
        for port in (a, b):
            if port.attached:
                raise PortError(f"{port.name} is already attached")
        if latency < 0:
            raise TopologyError(f"negative latency: {latency}")
        if rate_bps <= 0:
            raise TopologyError(f"non-positive rate: {rate_bps}")
        self.sim = sim
        self.a = a
        self.b = b
        self.latency = latency
        self.rate_bps = rate_bps
        self.recorder = recorder
        self._seconds_per_byte = 8.0 / rate_bps
        cable(a, b, self)
        self.frames_carried = 0
        self.bytes_carried = 0
        #: Fault-injection surface (``repro.faults``): transform hooks
        #: rewrite the delivery plan ``((extra_delay, payload), ...)``.
        self.faults: HookPoint = HookPoint(
            "link.faults", node=f"{a.name}|{b.name}", fallback_label="faults"
        )

    def other_end(self, port: Port) -> Port:
        if port is self.a:
            return self.b
        if port is self.b:
            return self.a
        raise PortError(f"{port.name} is not an endpoint of this link")

    def carry(self, sender: Port, data: bytes) -> None:
        """Propagate ``data`` from ``sender`` to the opposite port."""
        receiver = sender.peer
        if receiver is None:
            receiver = self.other_end(sender)  # defensive; peers are set on link-up
        self.frames_carried += 1
        self.bytes_carried += len(data)
        sim = self.sim
        if self.recorder is not None:
            self.recorder.record(sim.now, sender.name, Direction.TX, data)
        if self.faults.hooks:
            # Impairment hooks rewrite the delivery plan: each entry is
            # (extra_delay, payload); an empty plan means the frame is lost.
            plan = self.faults.transform(((0.0, data),), self, sender)
            for extra, payload in plan:
                sim.coalesce(
                    wire_delay(self.latency, len(payload), self._seconds_per_byte, extra),
                    receiver,
                    payload,
                )
            return
        sim.coalesce(
            wire_delay(self.latency, len(data), self._seconds_per_byte), receiver, data
        )

    def carry_batch(self, sender: Port, datas: Sequence[bytes]) -> None:
        """Propagate a whole frame batch from ``sender`` in one call.

        Used by the switch's batched flood/forward egress: counters and
        capture are updated per frame (a sniffer on the link sees exactly
        the per-frame trace), faults transform each frame in batch order
        with unchanged RNG draw order, and delivery coalesces frames by
        computed arrival time — frames of equal length land in one batch.
        """
        receiver = sender.peer
        if receiver is None:
            receiver = self.other_end(sender)
        sim = self.sim
        n = len(datas)
        self.frames_carried += n
        self.bytes_carried += len(datas[0]) if n == 1 else sum(map(len, datas))
        if self.recorder is not None:
            record = self.recorder.record
            now = sim.now
            name = sender.name
            for data in datas:
                record(now, name, Direction.TX, data)
        latency = self.latency
        spb = self._seconds_per_byte
        if self.faults.hooks:
            # Per-frame transform inside the batch: each frame gets its own
            # delivery plan, drawn in batch (== wire) order.
            plans = self.faults.transform_batch(
                [((0.0, data),) for data in datas], self, sender
            )
            for plan in plans:
                for extra, payload in plan:
                    sim.coalesce(
                        wire_delay(latency, len(payload), spb, extra), receiver, payload
                    )
            return
        if n == 1:
            # The common flood hop carries one frame: no grouping.
            data = datas[0]
            sim.coalesce(wire_delay(latency, len(data), spb), receiver, data)
            return
        # Group by frame length (== by arrival time): a flood batch is
        # uniform, so this is one accumulator probe for the lot.
        by_len: dict = {}
        for data in datas:
            group = by_len.get(len(data))
            if group is None:
                by_len[len(data)] = [data]
            else:
                group.append(data)
        coalesce_many = sim.coalesce_many
        for length, group in by_len.items():
            coalesce_many(wire_delay(latency, length, spb), receiver, group)

    def disconnect(self) -> None:
        """Tear the link down (cable pull)."""
        for port in (self.a, self.b):
            port.link = port.peer = None
            port.device._cabled = None

    def __repr__(self) -> str:
        return f"Link({self.a.name} <-> {self.b.name})"


class Device:
    """Base class for anything with ports (hosts, switches, hubs)."""

    def __init__(self, sim: Simulator, name: str) -> None:
        self.sim = sim
        self.name = name
        self.ports: List[Port] = []
        self._cabled: Optional[Tuple[int, ...]] = None

    def cabled_ports(self) -> Tuple[int, ...]:
        """Indices of the ports that have a cable, in index order.

        Floods walk these instead of every port: an uncabled port would
        transmit nothing.  Cached; :func:`cable` and
        :meth:`Link.disconnect` clear it.
        """
        cabled = self._cabled
        if cabled is None:
            cabled = self._cabled = tuple(
                port.index for port in self.ports if port.link is not None
            )
        return cabled

    def add_port(self, name: str = "") -> Port:
        port = Port(self, index=len(self.ports), name=name)
        self.ports.append(port)
        return port

    def on_frame(self, port: Port, data: bytes) -> None:
        """Handle a frame arriving on ``port``.  Subclasses override."""
        raise NotImplementedError

    def on_frame_batch(self, port: Port, datas: Sequence[bytes]) -> None:
        """Handle a coalesced batch of frames arriving on ``port``.

        The default simply unrolls to :meth:`on_frame` in batch (== wire)
        order, so devices without a vectorized receive path behave exactly
        as if each frame had arrived on its own event.  The switch and
        host override this with batch-aware fast paths.
        """
        on_frame = self.on_frame
        for data in datas:
            on_frame(port, data)

    def release(self) -> None:
        """Cut each port's device, peer and cable references, the cycles
        that tie a topology together (see :meth:`repro.l2.topology.Lan.release`).
        Port counters stay readable."""
        for port in self.ports:
            port.device = port.peer = port.link = None

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name}, ports={len(self.ports)})"
