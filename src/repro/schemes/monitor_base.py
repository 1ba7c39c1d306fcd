"""Shared plumbing for monitor-resident (sniffer) detection schemes.

These schemes deploy as the classic "IDS on a mirror port" station: the
switch copies every frame to the monitor host, whose NIC runs
promiscuously, and the scheme inspects the stream.  The base class here
handles tapping, decoding, and the IP->MAC observation database that
arpwatch-style detectors keep.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional

from repro.analysis.pcap import capture_filter
from repro.errors import CodecError, SchemeError
from repro.l2.topology import Lan
from repro.net.addresses import Ipv4Address, MacAddress
from repro.packets.arp import ArpPacket
from repro.packets.dhcp import DHCP_CLIENT_PORT, DHCP_SERVER_PORT, DhcpMessage
from repro.packets.ethernet import EtherType, EthernetFrame
from repro.packets.ipv4 import IpProto, Ipv4Packet
from repro.packets.udp import UdpDatagram
from repro.schemes.base import Scheme
from repro.stack.host import Host

__all__ = [
    "MonitorScheme",
    "Verification",
    "decode_dhcp",
    "ObservedStation",
    "BindingDatabase",
    "probe_retries_counter",
]


def decode_dhcp(ip_payload: bytes) -> Optional[DhcpMessage]:
    """The DHCP message in an IPv4 packet sent to port 67 or 68, if any."""
    try:
        packet = Ipv4Packet.decode(ip_payload)
        if packet.proto != IpProto.UDP:
            return None
        datagram = UdpDatagram.decode(packet.payload)
        if datagram.dst_port not in (DHCP_CLIENT_PORT, DHCP_SERVER_PORT):
            return None
        return DhcpMessage.decode(datagram.payload)
    except CodecError:
        return None


def probe_retries_counter():
    """``probe_retries_total{scheme}`` — verification probes re-sent
    after an unanswered per-attempt timeout."""
    from repro.obs.registry import REGISTRY

    return REGISTRY.counter(
        "probe_retries_total",
        "Active-verification probes re-sent after an unanswered timeout, by scheme",
        labels=("scheme",),
    )


@dataclass
class ObservedStation:
    """What a passive monitor knows about one IP address."""

    ip: Ipv4Address
    mac: MacAddress
    first_seen: float
    last_seen: float
    #: Distinct MACs this IP was bound to before, oldest first; a dict
    #: (values unused) so membership is O(1) and each MAC is kept once.
    previous_macs: Dict[MacAddress, None] = field(default_factory=dict)

    @property
    def flip_flopped(self) -> bool:
        """True when the current MAC was seen before an intermediate one."""
        return self.mac in self.previous_macs


class BindingDatabase:
    """The arpwatch-style observation table: IP -> station record."""

    def __init__(self) -> None:
        self._stations: Dict[Ipv4Address, ObservedStation] = {}

    def __len__(self) -> int:
        return len(self._stations)

    def __contains__(self, ip: Ipv4Address) -> bool:
        return ip in self._stations

    def get(self, ip: Ipv4Address) -> Optional[ObservedStation]:
        return self._stations.get(ip)

    def observe(
        self, ip: Ipv4Address, mac: MacAddress, now: float
    ) -> tuple[str, Optional[MacAddress]]:
        """Record a sighting; returns ``(event, previous_mac)``.

        ``event`` is ``"new"``, ``"refresh"``, ``"changed"`` or
        ``"flip-flop"`` — the same distinctions arpwatch reports.
        """
        station = self._stations.get(ip)
        if station is None:
            self._stations[ip] = ObservedStation(
                ip=ip, mac=mac, first_seen=now, last_seen=now
            )
            return ("new", None)
        if station.mac == mac:
            station.last_seen = now
            return ("refresh", None)
        previous = station.mac
        # A flip-flop is a return to any MAC held before the current one.
        event = "flip-flop" if mac in station.previous_macs else "changed"
        station.previous_macs[previous] = None
        station.mac = mac
        station.last_seen = now
        return (event, previous)

    def forget(self, ip: Ipv4Address) -> None:
        self._stations.pop(ip, None)

    def stations(self) -> List[ObservedStation]:
        return list(self._stations.values())


@dataclass
class Verification:
    """A rebinding under active verification: did the old owner answer?"""

    old_mac: MacAddress
    new_mac: MacAddress
    started: float
    answered: bool = False


class MonitorScheme(Scheme):
    """Base class: attaches to the LAN's mirror-port monitor station."""

    def __init__(self) -> None:
        super().__init__()
        #: ip -> the rebinding being verified (see :meth:`verify_rebinding`)
        self._pending: Dict[Ipv4Address, Verification] = {}
        self.probes_sent = 0

    def _install(self, lan: Lan, protected: List[Host]) -> None:
        if lan.monitor is None:
            raise SchemeError(
                f"{self.profile.key} needs a monitor station; call lan.add_monitor() first"
            )
        self.monitor = lan.monitor
        self._attach(self.monitor.frame_taps, self._tap)
        self._setup(lan)

    def _setup(self, lan: Lan) -> None:
        """Extra scheme-specific initialization (optional)."""

    # ------------------------------------------------------------------
    def verify_rebinding(
        self,
        ip: Ipv4Address,
        old_mac: MacAddress,
        new_mac: MacAddress,
        now: float,
        *,
        timeout: float,
        retries: int,
        name: str,
    ) -> None:
        """Actively verify a rebinding with a bounded retry/timeout loop.

        Records the claim in ``_pending`` and sends an echo request
        framed at ``old_mac`` (the previous owner), then waits
        ``timeout`` simulated seconds; if the probe stays unanswered
        (lost frame, downed link) it is re-sent up to ``retries`` times
        before :meth:`on_verdict` runs.  The wait is therefore always
        bounded by ``(retries + 1) * timeout``; there is no
        indefinite-wait path.  An ARP from ``old_mac`` for ``ip`` while
        pending also counts as an answer (the subclass's ``on_arp``).

        Each re-send is counted in ``probe_retries_total{scheme}`` and in
        the scheme's ``probes_sent``/``messages_sent`` (kept equal, as
        every probe is one monitor transmission).  The verdict is still
        rendered on a timeout boundary — a reply marks the verification
        answered but conclusion waits for the attempt's timer, so
        detection latency remains ``timeout`` regardless of retries.
        """
        self._pending[ip] = Verification(old_mac=old_mac, new_mac=new_mac, started=now)
        self._probe(ip, old_mac, timeout, name, retries)

    # The probe loop is methods bound with ``partial``: closures that call
    # each other would leave a reference cycle per verification.
    def _probe(
        self, ip: Ipv4Address, old_mac: MacAddress, timeout: float, name: str,
        remaining: int,
    ) -> None:
        self.probes_sent += 1
        self.messages_sent += 1
        self.monitor.ping_via(
            dst_ip=ip, dst_mac=old_mac, on_reply=partial(self._probe_answered, ip),
            timeout=timeout,
        )
        self.monitor.sim.schedule(
            timeout, partial(self._probe_check, ip, old_mac, timeout, name, remaining),
            name=name,
        )

    def _probe_answered(self, ip: Ipv4Address, src, rtt) -> None:
        pending = self._pending.get(ip)
        if pending is not None:
            pending.answered = True

    def _probe_check(
        self, ip: Ipv4Address, old_mac: MacAddress, timeout: float, name: str,
        remaining: int,
    ) -> None:
        pending = self._pending.get(ip)
        if pending is None or pending.answered or remaining <= 0:
            pending = self._pending.pop(ip, None)
            if pending is not None:
                self.on_verdict(ip, pending, self.monitor.sim.now)
            return
        probe_retries_counter().labels(scheme=self.profile.key).inc()
        self._probe(ip, old_mac, timeout, name, remaining - 1)

    # ------------------------------------------------------------------
    def _tap(self, frame: EthernetFrame, raw: bytes) -> None:
        now = self.monitor.sim.now
        if frame.src == self.monitor.mac:
            return  # ignore our own transmissions (probes etc.)
        self.on_any_frame(frame, now)
        if frame.ethertype == EtherType.ARP:
            try:
                arp = ArpPacket.decode(frame.payload)
            except CodecError:
                return
            self.on_arp(arp, frame, now)
        elif frame.ethertype == EtherType.IPV4 and capture_filter(raw, 0, len(raw)):
            # Only udp port 67/68 can hold DHCP: skip the decode for the rest.
            message = decode_dhcp(frame.payload)
            if message is not None:
                self.on_dhcp(message, frame, now)

    # -- subclass surface -------------------------------------------------
    def on_arp(self, arp: ArpPacket, frame: EthernetFrame, now: float) -> None:
        """Called for every ARP packet crossing the mirror port."""

    def on_dhcp(self, message: DhcpMessage, frame: EthernetFrame, now: float) -> None:
        """Called for every DHCP message crossing the mirror port."""

    def on_any_frame(self, frame: EthernetFrame, now: float) -> None:
        """Called for every frame (before protocol dispatch)."""

    def on_verdict(self, ip: Ipv4Address, pending: Verification, now: float) -> None:
        """Called once per :meth:`verify_rebinding`, when its probes conclude."""
