"""The simulated OpenFlow-like controller.

One :class:`Controller` owns a dedicated control channel (an ordinary
:class:`~repro.l2.device.Link`, so RTT is modeled and fault injection
applies) to each switch it manages.  Its reactive policy is the POX
``l2_learning`` shape with an ARP twist borrowed from the SDN
mitigation exemplar:

* every packet-in teaches it ``src MAC → port``;
* ARP is **never** given a flow — each ARP frame is validated through
  the pluggable :attr:`arp_validator` and released with a packet-out,
  so a spoofed sender cannot hide behind a cached verdict.  A failed
  validation installs a high-priority ingress *drop rule* instead;
* other traffic gets exact-match learning flows with an idle timeout,
  so the first frame of every conversation is seen here — except DHCP,
  which is always released with a packet-out and never given a flow,
  so the snoop (:attr:`dhcp_listener`) sees the full DORA exchange;
* periodic barrier keepalives measure control-channel RTT and double
  as the liveness signal that lets a fallen-back switch rejoin.

The controller is registered in ``lan.hosts`` (so fault targets like
``flap=ctrl`` resolve) but carries no IP address, keeping it invisible
to workloads, protection lists and the LAN's true-binding inventory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.errors import CodecError
from repro.l2.device import Device, Link, Port
from repro.l2.switch import Switch
from repro.net.addresses import Ipv4Address, MacAddress
from repro.obs.registry import REGISTRY
from repro.packets.arp import ArpPacket
from repro.packets.dhcp import (
    DHCP_CLIENT_PORT,
    DHCP_SERVER_PORT,
    DhcpMessage,
    DhcpMessageType,
)
from repro.packets.ethernet import EtherType, EthernetFrame
from repro.packets.ipv4 import IpProto, Ipv4Packet
from repro.packets.openflow import (
    BarrierReply,
    BarrierRequest,
    FlowAction,
    FlowMatch,
    FlowMod,
    PacketIn,
    PacketOut,
    decode_message,
)
from repro.packets.udp import UdpDatagram
from repro.sdn.agent import DEFAULT_MAX_PENDING, FAIL_OPEN, SwitchAgent
from repro.sdn.flow_table import DEFAULT_FLOW_CAPACITY

__all__ = ["Controller", "ControlChannel", "DEFAULT_CONTROL_LATENCY"]

#: One-way control-channel latency: a controller is typically a few
#: switch hops away, so an order of magnitude above a LAN segment.
DEFAULT_CONTROL_LATENCY = 500e-6

#: An ARP validator sees (switch_name, in_port, frame, arp) → allow?
ArpValidator = Callable[[str, int, EthernetFrame, ArpPacket], bool]
#: A DHCP listener sees every snooped ACK: (ip, mac, lease_seconds).
DhcpListener = Callable[[Ipv4Address, MacAddress, float], None]


@dataclass
class ControlChannel:
    """Controller-side state for one managed switch."""

    switch_name: str
    switch: Switch
    port: Port  # the controller's end of the control link
    agent: SwitchAgent
    agent_mac: MacAddress
    link: Link
    up: bool = True
    mac_to_port: Dict[MacAddress, int] = field(default_factory=dict)


class Controller(Device):
    """A reactive learning controller with pluggable ARP/DHCP policy."""

    def __init__(
        self,
        sim,
        name: str = "ctrl",
        control_latency: float = DEFAULT_CONTROL_LATENCY,
        keepalive_interval: float = 1.0,
        flow_idle_timeout: int = 10,
        drop_rule_idle_timeout: int = 60,
    ) -> None:
        super().__init__(sim, name)
        #: No IP: workloads, protection lists and ``true_bindings()`` all
        #: filter on ``ip is not None``, which keeps the controller out of
        #: the experiment population while still living in ``lan.hosts``.
        self.ip: Optional[Ipv4Address] = None
        self.mac: Optional[MacAddress] = None
        self.control_latency = control_latency
        self.keepalive_interval = keepalive_interval
        self.flow_idle_timeout = flow_idle_timeout
        self.drop_rule_idle_timeout = drop_rule_idle_timeout

        self.arp_validator: Optional[ArpValidator] = None
        self.dhcp_listener: Optional[DhcpListener] = None

        self._channels: Dict[int, ControlChannel] = {}  # by local port index
        self._by_switch: Dict[str, ControlChannel] = {}
        self._keepalive_cancels: List[Callable[[], None]] = []
        self._barrier_sent: Dict[int, float] = {}
        self._next_xid = 1

        self.packet_ins_received = 0
        self.malformed_packet_ins = 0
        self.flow_mods_sent = 0
        self.packet_outs_sent = 0
        self.spoof_drops = 0
        self.control_messages_sent = 0
        self.disconnects = 0
        self.reconnects = 0

        self._rtt_metric = REGISTRY.histogram(
            "controller_rtt_seconds",
            "Control-channel round-trip time (barrier request to reply)",
            labels=("switch",),
        )

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    @property
    def nic(self) -> Port:
        """First control port — lets fault targets resolve ``flap=ctrl``
        through the same ``host.nic.link`` path as any host."""
        if not self.ports:
            raise RuntimeError(f"{self.name}: not connected to any switch")
        return self.ports[0]

    def connect(
        self,
        lan,
        switch_name: str,
        switch: Switch,
        fail_mode: str = FAIL_OPEN,
        flow_capacity: int = DEFAULT_FLOW_CAPACITY,
        max_pending: int = DEFAULT_MAX_PENDING,
    ) -> ControlChannel:
        """Wire a control channel to ``switch`` and take over its plane."""
        if switch_name in self._by_switch:
            raise ValueError(f"{self.name}: already connected to {switch_name}")
        if switch.sdn_agent is not None:
            raise ValueError(f"{switch.name}: already has an SDN agent")
        if self.mac is None:
            self.mac = lan._alloc_mac()
        switch_port = lan._take_switch_port(switch_name)
        my_port = self.add_port(name=f"{self.name}.of{len(self.ports)}")
        link = Link(
            lan.sim, my_port, switch.ports[switch_port],
            latency=self.control_latency,
        )
        lan.links.append(link)
        agent = SwitchAgent(
            switch,
            control_port_index=switch_port,
            mac=lan._alloc_mac(),
            controller_mac=self.mac,
            fail_mode=fail_mode,
            flow_capacity=flow_capacity,
            max_pending=max_pending,
        )
        switch.sdn_agent = agent
        channel = ControlChannel(
            switch_name=switch_name,
            switch=switch,
            port=my_port,
            agent=agent,
            agent_mac=agent.mac,
            link=link,
        )
        self._channels[my_port.index] = channel
        self._by_switch[switch_name] = channel
        # Pre-create the RTT series so the family shows up at zero.
        self._rtt_metric.labels(switch=switch_name)
        self._keepalive_cancels.append(
            self.sim.call_every(
                self.keepalive_interval,
                lambda ch=channel: self._keepalive(ch),
                name=f"sdn.keepalive/{switch_name}",
            )
        )
        return channel

    def disconnect_all(self) -> None:
        """Detach from every switch (scheme uninstall)."""
        for cancel in self._keepalive_cancels:
            cancel()
        self._keepalive_cancels.clear()
        for channel in self._channels.values():
            channel.switch.sdn_agent = None
            channel.link.disconnect()
        self._channels.clear()
        self._by_switch.clear()
        # The policy callbacks are the scheme's bound methods, and the
        # scheme holds this controller: drop them and the dead ports.
        self.arp_validator = self.dhcp_listener = None
        self.release()

    def channel_for(self, switch_name: str) -> ControlChannel:
        return self._by_switch[switch_name]

    @property
    def channels(self) -> List[ControlChannel]:
        return list(self._channels.values())

    # ------------------------------------------------------------------
    # Link events
    # ------------------------------------------------------------------
    def link_down(self, port_index: int) -> None:
        """Duck-typed fault callback: our end of a control link dropped."""
        channel = self._channels.get(port_index)
        if channel is not None and channel.up:
            channel.up = False
            self.disconnects += 1

    # ------------------------------------------------------------------
    # Control input
    # ------------------------------------------------------------------
    def on_frame(self, port: Port, data: bytes) -> None:
        channel = self._channels.get(port.index)
        if channel is None:
            return
        try:
            frame = EthernetFrame.lazy(data)
        except CodecError:
            return
        if frame.ethertype != EtherType.EXPERIMENTAL:
            return
        try:
            message = decode_message(frame.payload)
        except CodecError:
            return
        if not channel.up:
            # Any message over the channel proves it is back.
            channel.up = True
            self.reconnects += 1
        if isinstance(message, PacketIn):
            self._packet_in(channel, message)
        elif isinstance(message, BarrierReply):
            self._barrier_reply(channel, message)

    def _barrier_reply(self, channel: ControlChannel, reply: BarrierReply) -> None:
        sent_at = self._barrier_sent.pop(reply.xid, None)
        if sent_at is not None:
            self._rtt_metric.labels(switch=channel.switch_name).observe(
                self.sim.now - sent_at
            )

    def _keepalive(self, channel: ControlChannel) -> None:
        xid = self._next_xid & 0xFFFFFFFF
        self._next_xid += 1
        self._barrier_sent[xid] = self.sim.now
        if len(self._barrier_sent) > 1024:  # unanswered probes of dead channels
            self._barrier_sent.pop(next(iter(self._barrier_sent)))
        self._send(channel, BarrierRequest(xid=xid))

    # ------------------------------------------------------------------
    # Packet-in policy
    # ------------------------------------------------------------------
    def _packet_in(self, channel: ControlChannel, msg: PacketIn) -> None:
        self.packet_ins_received += 1
        try:
            inner = EthernetFrame.lazy(msg.frame)
        except CodecError:
            self.malformed_packet_ins += 1
            return
        channel.mac_to_port[inner.src] = msg.in_port
        if inner.ethertype == EtherType.ARP:
            self._handle_arp(channel, msg, inner)
            return
        if inner.ethertype == EtherType.IPV4 and self.dhcp_listener is not None:
            self._snoop_dhcp(inner)
        self._handle_data(channel, msg, inner)

    def _handle_arp(
        self, channel: ControlChannel, msg: PacketIn, inner: EthernetFrame
    ) -> None:
        try:
            arp = ArpPacket.decode(inner.payload)
        except CodecError:
            arp = None
        if (
            arp is not None
            and self.arp_validator is not None
            and not self.arp_validator(channel.switch_name, msg.in_port, inner, arp)
        ):
            # Spoofed sender: drop the frame *and* program an ingress
            # drop rule so the flood stops consuming control bandwidth.
            self.spoof_drops += 1
            self._send_flow_mod(
                channel,
                FlowMod(
                    match=FlowMatch(
                        in_port=msg.in_port,
                        src=inner.src,
                        ethertype=EtherType.ARP,
                    ),
                    action=FlowAction.DROP,
                    priority=100,
                    idle_timeout=self.drop_rule_idle_timeout,
                    buffer_id=msg.buffer_id,
                ),
            )
            return
        # Valid (or unparseable, which the hosts will reject themselves):
        # release via packet-out, installing nothing, so the *next* ARP
        # from this sender is validated again.
        out = channel.mac_to_port.get(inner.dst)
        if inner.dst.is_multicast or out is None or out == msg.in_port:
            action, out_port = FlowAction.FLOOD, 0
        else:
            action, out_port = FlowAction.OUTPUT, out
        self._send_packet_out(channel, msg, action, out_port)

    def _handle_data(
        self, channel: ControlChannel, msg: PacketIn, inner: EthernetFrame
    ) -> None:
        out = channel.mac_to_port.get(inner.dst)
        if inner.dst.is_multicast or out is None:
            self._send_packet_out(channel, msg, FlowAction.FLOOD, 0)
            return
        if out == msg.in_port:
            self._send_packet_out(channel, msg, FlowAction.DROP, 0)
            return
        if self._is_dhcp(inner):
            # DHCP never gets a flow: the snoop must see every ACK, and a
            # flow installed for the OFFER would carry the ACK (same
            # src/dst/ethertype) past the controller.
            self._send_packet_out(channel, msg, FlowAction.OUTPUT, out)
            return
        # Exact-match learning flow: pinning (in_port, src, dst, ethertype)
        # means every new conversation direction packet-ins once.
        self._send_flow_mod(
            channel,
            FlowMod(
                match=FlowMatch(
                    in_port=msg.in_port,
                    src=inner.src,
                    dst=inner.dst,
                    ethertype=inner.ethertype,
                ),
                action=FlowAction.OUTPUT,
                out_port=out,
                idle_timeout=self.flow_idle_timeout,
                buffer_id=msg.buffer_id,
            ),
        )

    @staticmethod
    def _is_dhcp(inner: EthernetFrame) -> bool:
        if inner.ethertype != EtherType.IPV4:
            return False
        try:
            packet = Ipv4Packet.decode(inner.payload)
            if packet.proto != IpProto.UDP:
                return False
            datagram = UdpDatagram.decode(packet.payload)
        except CodecError:
            return False
        return bool(
            {datagram.src_port, datagram.dst_port}
            & {DHCP_SERVER_PORT, DHCP_CLIENT_PORT}
        )

    def _snoop_dhcp(self, inner: EthernetFrame) -> None:
        try:
            packet = Ipv4Packet.decode(inner.payload)
            if packet.proto != IpProto.UDP:
                return
            datagram = UdpDatagram.decode(packet.payload)
            if (
                datagram.src_port != DHCP_SERVER_PORT
                or datagram.dst_port != DHCP_CLIENT_PORT
            ):
                return
            message = DhcpMessage.decode(datagram.payload)
        except CodecError:
            return  # truncated past the snoop window, or not DHCP at all
        if (
            message.message_type == DhcpMessageType.ACK
            and not message.yiaddr.is_unspecified
        ):
            self.dhcp_listener(
                message.yiaddr, message.chaddr, float(message.lease_time or 600)
            )

    # ------------------------------------------------------------------
    # Control output
    # ------------------------------------------------------------------
    def _send_flow_mod(self, channel: ControlChannel, mod: FlowMod) -> None:
        self.flow_mods_sent += 1
        self._send(channel, mod)

    def _send_packet_out(
        self, channel: ControlChannel, msg: PacketIn, action: int, out_port: int
    ) -> None:
        self.packet_outs_sent += 1
        self._send(
            channel,
            PacketOut(
                buffer_id=msg.buffer_id,
                in_port=msg.in_port,
                action=action,
                out_port=out_port,
            ),
        )

    def _send(self, channel: ControlChannel, message) -> None:
        frame = EthernetFrame(
            dst=channel.agent_mac,
            src=self.mac,
            ethertype=EtherType.EXPERIMENTAL,
            payload=message.encode(),
        )
        self.control_messages_sent += 1
        channel.port.transmit(frame.encode())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Controller({self.name}, switches={len(self._channels)}, "
            f"packet_ins={self.packet_ins_received})"
        )
