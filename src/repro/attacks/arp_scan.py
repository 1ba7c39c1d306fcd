"""ARP sweep reconnaissance (netdiscover / ettercap host discovery).

Before poisoning anyone, real tools enumerate the LAN: a burst of ARP
requests walking the whole subnet, harvesting who answers.  The sweep
itself is harmless but extremely loud — a distinctive pre-attack
signature that scan-aware detectors (hybrid, live or replayed) flag.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import AttackError, CodecError
from repro.net.addresses import BROADCAST_MAC, Ipv4Address, MacAddress
from repro.packets.arp import ArpPacket
from repro.packets.ethernet import EtherType, EthernetFrame
from repro.attacks.base import Attack
from repro.stack.host import Host

__all__ = ["ArpScan"]


class ArpScan(Attack):
    """Sweep the subnet with ARP requests and harvest the replies.

    ``stealth=True`` paces the sweep at ``stealth_interval`` per probe
    (netdiscover's slow mode) instead of a rapid-fire burst, which is
    what rate-based scan detectors trade off against.
    """

    kind = "arp-scan"

    def __init__(
        self,
        attacker: Host,
        rate_per_second: float = 50.0,
        stealth: bool = False,
        stealth_interval: float = 2.0,
    ) -> None:
        super().__init__(attacker)
        if attacker.network is None:
            raise AttackError("scanner needs to know its subnet")
        if rate_per_second <= 0 or stealth_interval <= 0:
            raise AttackError("rates must be positive")
        self.rate = rate_per_second
        self.stealth = stealth
        self.stealth_interval = stealth_interval
        self.discovered: Dict[Ipv4Address, MacAddress] = {}
        self._targets: List[Ipv4Address] = []
        self._cancel = None
        self._untap = None

    # ------------------------------------------------------------------
    def _start(self) -> None:
        self._targets = [
            ip
            for ip in self.attacker.network.hosts()
            if self.attacker.ip is None or ip != self.attacker.ip
        ]
        self._untap = self.attacker.frame_taps.add(self._on_frame)
        interval = self.stealth_interval if self.stealth else 1.0 / self.rate
        self._probe_next()
        self._cancel = self.attacker.sim.call_every(
            interval, self._probe_next, name=self.kind
        )

    def _stop(self) -> None:
        if self._cancel is not None:
            self._cancel()
            self._cancel = None
        if self._untap is not None:
            self._untap()
            self._untap = None

    # ------------------------------------------------------------------
    def _probe_next(self) -> None:
        if not self._targets:
            self.stop()
            return
        target = self._targets.pop(0)
        spa = self.attacker.ip if self.attacker.ip is not None else Ipv4Address(0)
        request = ArpPacket.request(sha=self.attacker.mac, spa=spa, tpa=target)
        frame = EthernetFrame(
            dst=BROADCAST_MAC,
            src=self.attacker.mac,
            ethertype=EtherType.ARP,
            payload=request.encode(),
        )
        self.frames_sent += 1
        self.attacker.transmit_frame(frame, origin=f"attack:{self.kind}")

    def _on_frame(self, frame: EthernetFrame, raw: bytes) -> None:
        if frame.ethertype != EtherType.ARP:
            return
        try:
            arp = ArpPacket.decode(frame.payload)
        except CodecError:
            return
        if arp.is_reply and self.attacker.ip is not None and arp.tpa == self.attacker.ip:
            self.discovered[arp.spa] = arp.sha

    @property
    def complete(self) -> bool:
        return self.active is False and not self._targets and self.frames_sent > 0
