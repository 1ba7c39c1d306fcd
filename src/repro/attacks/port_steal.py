"""Port stealing (ettercap's "port theft" technique).

Instead of lying in ARP payloads, the attacker lies to the *switch*: it
floods frames whose Ethernet **source** is the victim's MAC, so the CAM
table re-learns the victim's address on the attacker's port and unicast
traffic for the victim is delivered to the attacker instead.  Between
bursts the attacker ARPs for the victim to hand the port back, picks up
what it captured, and steals again.

Relevance to the analysis: port stealing defeats ARP-payload defenses
(nothing in any ARP packet is false — S-ARP/TARP/DAI have nothing to
veto) and is exactly what TARP-ticket replay needs to become a full
interposition.  Port security is the defense that kills it, since the
victim's MAC appearing on a second port is the textbook violation.
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import AttackError
from repro.net.addresses import MacAddress
from repro.packets.ethernet import EtherType, EthernetFrame
from repro.attacks.base import Attack
from repro.stack.host import Host

__all__ = ["PortStealing"]


class PortStealing(Attack):
    """Steal the switch port of one or more victim MACs."""

    kind = "port-steal"

    def __init__(
        self,
        attacker: Host,
        victim_macs: List[MacAddress],
        burst: int = 10,
        interval: float = 0.05,
    ) -> None:
        super().__init__(attacker)
        if not victim_macs:
            raise AttackError("need at least one victim MAC")
        if burst < 1 or interval <= 0:
            raise AttackError("burst and interval must be positive")
        self.victim_macs = list(victim_macs)
        self.burst = burst
        self.interval = interval
        self._cancel = None
        self.frames_captured = 0
        self._untap = None

    def _start(self) -> None:
        # Count what lands on our NIC for the stolen MACs.
        def tap(frame: EthernetFrame, raw: bytes) -> None:
            if frame.dst in self.victim_macs:
                self.frames_captured += 1

        self._untap = self.attacker.frame_taps.add(tap)
        self._steal()
        self._cancel = self.attacker.sim.call_every(
            self.interval, self._steal, name=self.kind
        )

    def _stop(self) -> None:
        if self._cancel is not None:
            self._cancel()
            self._cancel = None
        if self._untap is not None:
            self._untap()
            self._untap = None

    def _steal(self) -> None:
        """One burst of forged-source frames per victim.

        The forged frames are addressed to the attacker's own MAC so the
        switch delivers them straight back (real tools use a dst that
        goes nowhere); only the *source* field does the damage.
        """
        for mac in self.victim_macs:
            for _ in range(self.burst):
                frame = EthernetFrame(
                    dst=self.attacker.mac,
                    src=mac,
                    ethertype=EtherType.EXPERIMENTAL,
                    payload=b"port-steal",
                )
                self.frames_sent += 1
                self.attacker.transmit_frame(frame, origin=f"attack:{self.kind}")
