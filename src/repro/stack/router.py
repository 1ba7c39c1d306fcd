"""The LAN's default gateway, with a thin simulated WAN behind it.

MITM-of-gateway is the flagship ARP poisoning scenario, so experiments
need a real gateway: a host with forwarding enabled whose off-link
traffic goes to a pluggable WAN hook.  The built-in hook behaves like a
remote server farm — it answers ICMP echo and simple UDP request/response
exchanges after a configurable WAN round-trip.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import CodecError
from repro.net.addresses import Ipv4Address, Ipv4Network, MacAddress
from repro.packets.icmp import IcmpMessage
from repro.packets.ipv4 import IpProto, Ipv4Packet
from repro.packets.udp import UdpDatagram
from repro.sim.simulator import Simulator
from repro.stack.host import Host
from repro.stack.os_profiles import LINUX, OsProfile

__all__ = ["Router"]

#: A WAN hook receives the outbound packet and returns an optional response.
WanHook = Callable[[Ipv4Packet], Optional[Ipv4Packet]]


# ----------------------------------------------------------------------
# Built-in "the internet" behaviour.  A function, not a method: a router
# holding a method bound to itself would be a reference cycle.
# ----------------------------------------------------------------------
def _default_wan(packet: Ipv4Packet) -> Optional[Ipv4Packet]:
    """Echo-style remote endpoint: answers pings and UDP requests."""
    if packet.proto == IpProto.ICMP:
        try:
            message = IcmpMessage.decode(packet.payload)
        except CodecError:
            return None
        if not message.is_echo_request:
            return None
        return Ipv4Packet(
            src=packet.dst,
            dst=packet.src,
            proto=IpProto.ICMP,
            payload=message.reply_to().encode(),
        )
    if packet.proto == IpProto.UDP:
        try:
            datagram = UdpDatagram.decode(packet.payload)
        except CodecError:
            return None
        answer = UdpDatagram(
            src_port=datagram.dst_port,
            dst_port=datagram.src_port,
            payload=b"wan-echo:" + datagram.payload[:64],
        )
        return Ipv4Packet(
            src=packet.dst,
            dst=packet.src,
            proto=IpProto.UDP,
            payload=answer.encode(),
        )
    return None


class Router(Host):
    """A gateway host: forwards on-link traffic and uplinks the rest."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        mac: MacAddress,
        ip: Ipv4Address,
        network: Ipv4Network,
        wan_rtt: float = 0.02,
        profile: OsProfile = LINUX,
    ) -> None:
        super().__init__(
            sim, name, mac, ip=ip, network=network, gateway=None, profile=profile
        )
        self.ip_forward = True
        self.wan_rtt = wan_rtt
        self.wan_hook: WanHook = _default_wan
        self.wan_tx = 0
        self.wan_rx = 0

    def _ip_forward(self, packet: Ipv4Packet) -> None:
        if packet.ttl <= 1:
            return
        out = packet.decremented()
        self.counters["ip_forwarded"] += 1
        out = self.forward_taps.transform(out)
        if self._on_link(out.dst):
            self.resolve(out.dst, on_resolved=lambda mac: self._tx_ip(mac, out))
            return
        # Off-link: hand to the WAN.
        self.wan_tx += 1
        response = self.wan_hook(out)
        if response is None:
            return

        def deliver_response() -> None:
            self.wan_rx += 1
            if self._on_link(response.dst):
                self.resolve(
                    response.dst,
                    on_resolved=lambda mac: self._tx_ip(mac, response),
                )

        self.sim.schedule(self.wan_rtt, deliver_response, name=f"{self.name}.wan")
