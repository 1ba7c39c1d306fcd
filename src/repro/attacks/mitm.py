"""Full-duplex man-in-the-middle built on ARP poisoning.

The attacker poisons both parties (classically: a user host and the
gateway), turns on IP forwarding so the session keeps flowing, and taps —
optionally tampers with — everything relayed.  Interception statistics
from this class feed the reproduced Figure 4.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from repro.net.addresses import Ipv4Address
from repro.packets.ipv4 import Ipv4Packet
from repro.attacks.arp_poison import ArpPoisoner, PoisonTarget
from repro.attacks.base import Attack
from repro.stack.host import Host

__all__ = ["InterceptedPacket", "MitmAttack"]


@dataclass(frozen=True)
class InterceptedPacket:
    """One relayed datagram, as seen (and possibly altered) in transit."""

    time: float
    src: Ipv4Address
    dst: Ipv4Address
    proto: int
    length: int
    tampered: bool


class MitmAttack(Attack):
    """Poison ``victim_a`` <-> ``victim_b`` and relay their traffic.

    Parameters
    ----------
    attacker:
        The attacking host (forwarding is enabled while active).
    victim_a, victim_b:
        The two endpoints to interpose between.  ``victim_b`` is usually
        the gateway.
    technique, interval:
        Passed through to the underlying :class:`ArpPoisoner`.
    tamper:
        Optional hook: receives each relayed :class:`Ipv4Packet`; return a
        replacement packet to tamper, or ``None`` to pass through intact.
    """

    kind = "mitm"

    def __init__(
        self,
        attacker: Host,
        victim_a: Host,
        victim_b: Host,
        technique: str = "reply",
        interval: float = 1.0,
        tamper: Optional[Callable[[Ipv4Packet], Optional[Ipv4Packet]]] = None,
    ) -> None:
        super().__init__(attacker)
        if victim_a.ip is None or victim_b.ip is None:
            raise ValueError("MITM victims need configured IPs")
        self.victim_a = victim_a
        self.victim_b = victim_b
        self.tamper = tamper
        self.kind = f"mitm/{technique}"
        targets = [
            PoisonTarget(
                victim_ip=victim_a.ip,
                victim_mac=victim_a.mac,
                spoofed_ip=victim_b.ip,
                claimed_mac=attacker.mac,
            ),
            PoisonTarget(
                victim_ip=victim_b.ip,
                victim_mac=victim_b.mac,
                spoofed_ip=victim_a.ip,
                claimed_mac=attacker.mac,
            ),
        ]
        self.poisoner = ArpPoisoner(
            attacker, targets, technique=technique, interval=interval
        )
        self.intercepted: List[InterceptedPacket] = []
        self._saved_forwarding: Optional[bool] = None
        self._untap = None

    # ------------------------------------------------------------------
    def _start(self) -> None:
        self._saved_forwarding = self.attacker.ip_forward
        self.attacker.ip_forward = True
        self._untap = self.attacker.forward_taps.add(self._on_forward)
        self.poisoner.start()

    def _stop(self) -> None:
        self.poisoner.stop()
        if self._untap is not None:
            self._untap()
            self._untap = None
        if self._saved_forwarding is not None:
            self.attacker.ip_forward = self._saved_forwarding

    # ------------------------------------------------------------------
    def _on_forward(self, packet: Ipv4Packet) -> None:
        pair = {packet.src, packet.dst}
        if pair != {self.victim_a.ip, self.victim_b.ip} and not (
            self.victim_a.ip in pair or self.victim_b.ip in pair
        ):
            return
        replacement = None
        if self.tamper is not None:
            replacement = self.tamper(packet)
        self.intercepted.append(
            InterceptedPacket(
                time=self.attacker.sim.now,
                src=packet.src,
                dst=packet.dst,
                proto=packet.proto,
                length=packet.total_length,
                tampered=replacement is not None,
            )
        )
        return replacement

    # ------------------------------------------------------------------
    @property
    def frames_relayed(self) -> int:
        return len(self.intercepted)

    def intercepted_between(self, start: float, end: float) -> List[InterceptedPacket]:
        return [p for p in self.intercepted if start <= p.time < end]
