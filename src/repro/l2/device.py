"""Devices, ports and links — the physical layer of the simulated LAN.

A :class:`Device` owns :class:`Port` objects; a :class:`Link` joins exactly
two ports and carries raw frame bytes between them with a configurable
propagation latency and serialization rate.  Every link can host a
:class:`~repro.sim.trace.TraceRecorder`, which is how sniffers and the
evaluation's overhead accounting observe traffic.

Sending, like receiving, has one entry per layer: :meth:`Port.transmit_batch`
hands frames to :meth:`Link.carry_batch`, and a frame sent on its own is
a batch of one.  The wire is also where the batched data plane engages:
:meth:`Link.carry_batch` hands every arrival to
:meth:`~repro.sim.simulator.Simulator.coalesce`, which — when the owning
simulator has ``batching`` on and tracing is off — merges same-instant
deliveries to one receiver into a single ``deliver_batch`` flush instead
of one event per frame (otherwise each frame arrives as a batch of one).
Fault-injection hooks on :attr:`Link.faults` transform every frame
individually (same hook order, same RNG draw order), however many frames
a call carries.
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
    a.device._live = b.device._live = None


class Port:
    """One attachment point on a device."""

    def __init__(self, device: "Device", index: int, name: str = "") -> None:
        self.device = device
        self.index = index
        self.name = name or f"{device.name}.eth{index}"
        self.link: Optional["Link"] = None
        self.peer: Optional["Port"] = None  # opposite end, set by Link
        #: Administrative state.  Change it through :meth:`shut` and
        #: :meth:`no_shut`, which keep the device's ``live_ports()`` current.
        self.up = True
        self.tx_frames = 0
        self.rx_frames = 0
        self.tx_bytes = 0
        self.rx_bytes = 0

    @property
    def attached(self) -> bool:
        return self.link is not None

    def transmit_batch(self, datas: Sequence[bytes]) -> None:
        """The port's one send entry: frames leaving together, in wire
        order (no-op when down or unattached).

        A frame sent on its own is a batch of one.
        """
        link = self.link
        if link is None or not self.up or not datas:
            return
        n = len(datas)
        self.tx_frames += n
        self.tx_bytes += len(datas[0]) if n == 1 else sum(map(len, datas))
        link.carry_batch(self, datas)

    def deliver_batch(self, datas: Sequence[bytes]) -> None:
        """The port's one delivery entry: frames arriving together.

        The simulator's per-event plane and the replay engine hand over
        batches of one.  The whole batch shares one administrative
        state: a port that went down before the flush drops every frame
        in it, exactly as it would have dropped each frame arriving
        individually.
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
        self._state_changed()

    def no_shut(self) -> None:
        self.up = True
        self._state_changed()

    def _state_changed(self) -> None:
        device = self.device
        if device is not None:
            device._live = None

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

    def carry_batch(self, sender: Port, datas: Sequence[bytes]) -> None:
        """The link's one carry entry: propagate frames from ``sender``
        to the opposite port.

        Counters and capture are updated per frame (a sniffer on the link
        sees exactly the per-frame trace), fault hooks transform each
        frame in batch order with unchanged RNG draw order, and delivery
        coalesces frames by computed arrival time — frames of equal
        length land in one batch.
        """
        receiver = sender.peer
        if receiver is None:
            receiver = self.other_end(sender)  # defensive; peers are set on link-up
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
            # Impairment hooks rewrite each frame's delivery plan, drawn in
            # batch (== wire) order: each entry is (extra_delay, payload);
            # an empty plan means the frame is lost.
            transform = self.faults.transform
            for data in datas:
                for extra, payload in transform(((0.0, data),), self, sender):
                    sim.coalesce(
                        wire_delay(latency, len(payload), spb, extra), receiver, payload
                    )
            return
        if n == 1:
            # A one-frame send, the common hop: no grouping.
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
            port.device._live = None

    def __repr__(self) -> str:
        return f"Link({self.a.name} <-> {self.b.name})"


class Device:
    """Base class for anything with ports (hosts, switches, hubs)."""

    def __init__(self, sim: Simulator, name: str) -> None:
        self.sim = sim
        self.name = name
        self.ports: List[Port] = []
        self._live: Optional[Tuple[int, ...]] = None

    def live_ports(self) -> Tuple[int, ...]:
        """Indices of the ports a frame can leave by, in index order:
        cabled and up.

        Floods walk these instead of every port: an uncabled or shut
        port would transmit nothing.  Cached; :func:`cable`,
        :meth:`Link.disconnect`, :meth:`Port.shut` and
        :meth:`Port.no_shut` clear it.
        """
        live = self._live
        if live is None:
            live = self._live = tuple(
                port.index
                for port in self.ports
                if port.link is not None and port.up
            )
        return live

    def add_port(self, name: str = "") -> Port:
        port = Port(self, index=len(self.ports), name=name)
        self.ports.append(port)
        return port

    def on_frame_batch(self, port: Port, datas: Sequence[bytes]) -> None:
        """Handle frames arriving together on ``port``, in wire order.

        The device's one receive entry; a frame delivered on its own is
        a batch of one.  Subclasses override.
        """
        raise NotImplementedError

    def release(self) -> None:
        """Cut each port's device, peer and cable references, the cycles
        that tie a topology together (see :meth:`repro.l2.topology.Lan.release`).
        Port counters stay readable."""
        for port in self.ports:
            port.device = port.peer = port.link = None

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name}, ports={len(self.ports)})"
