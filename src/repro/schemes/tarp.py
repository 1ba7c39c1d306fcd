"""Scheme 5 — TARP: ticket-based ARP.

TARP (Lootah, Enck, McDaniel) keeps S-ARP's cryptographic trust but
moves all signing offline: a Local Ticket Agent signs each host's
``(IP, MAC)`` binding once, at attachment time, and ARP replies simply
carry the ticket.  Receivers verify one LTA signature — no key
distribution round-trips, no per-reply signing — so the latency overhead
is roughly half of S-ARP's verify-plus-sign path.  The analysis
highlights the trade it makes for that speed: tickets are bearer tokens,
so an attacker who captures one can replay it as long as it is valid —
but only together with the victim's MAC, which re-routes nothing unless
the attacker also steals the switch port.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.crypto.keys import keychain
from repro.crypto.lta import LocalTicketAgent, Ticket
from repro.crypto.sign import CryptoCostModel
from repro.errors import CryptoError
from repro.l2.topology import Lan
from repro.packets.arp import ArpExtension, ArpPacket, TARP_MAGIC
from repro.packets.ethernet import EthernetFrame
from repro.schemes.base import Coverage, Scheme, SchemeProfile, Severity
from repro.stack.arp_cache import BindingSource
from repro.stack.host import Host
from repro.stack.os_profiles import STRICT

__all__ = ["TicketArp"]


class TicketArp(Scheme):
    """LTA-issued tickets attached to ARP replies."""

    profile = SchemeProfile(
        key="tarp",
        display_name="TARP (ticket-based ARP)",
        kind="prevention",
        placement="host+server",
        requires_infra_change=True,
        requires_host_change=True,
        requires_crypto=True,
        supports_dhcp_networks=True,
        cost="medium",
        claimed_coverage={
            "reply": Coverage.PREVENTS,
            "request": Coverage.PREVENTS,
            "gratuitous": Coverage.PREVENTS,
            "reactive": Coverage.PREVENTS,
        },
        limitations=(
            "tickets are replayable within their validity window",
            "replay + MAC spoofing enables impersonation until expiry",
            "hosts must be re-ticketed when addressing changes (DHCP churn)",
            "every host's stack must be modified",
        ),
        reference="Lootah, Enck & McDaniel — TARP (SecureComm'05)",
    )

    def __init__(
        self,
        cost_model: Optional[CryptoCostModel] = None,
        key_bits: int = 512,
        ticket_validity: float = 3600.0,
        alert_on_invalid: bool = True,
    ) -> None:
        super().__init__()
        self.cost_model = cost_model or CryptoCostModel()
        self.key_bits = key_bits
        self.ticket_validity = ticket_validity
        self.alert_on_invalid = alert_on_invalid
        self.lta: Optional[LocalTicketAgent] = None
        self._tickets: Dict[str, Ticket] = {}
        self.tickets_verified = 0
        self.tickets_rejected = 0
        self.unticketed_dropped = 0

    # ------------------------------------------------------------------
    def _install(self, lan: Lan, protected: List[Host]) -> None:
        # The pair rng_stream("tarp/keys") would draw, memoized across runs.
        keys = keychain(f"{lan.sim.seed}/tarp/keys", bits=self.key_bits)
        self.lta = LocalTicketAgent(
            next(keys),
            default_validity=self.ticket_validity,
        )
        for host in protected:
            if host.ip is None:
                continue
            ticket = self.lta.issue(host.ip, host.mac, now=lan.sim.now)
            self._tickets[host.name] = ticket
            self._attach_host(host, ticket)

    def _attach_host(self, host: Host, ticket: Ticket) -> None:
        saved_profile = host.profile
        host.profile = STRICT

        def transform(arp: ArpPacket) -> ArpPacket:
            if arp.is_request and not arp.is_gratuitous:
                return arp
            if host.ip is None or arp.spa != host.ip or arp.sha != host.mac:
                return arp
            return ArpPacket(
                op=arp.op,
                sha=arp.sha,
                spa=arp.spa,
                tha=arp.tha,
                tpa=arp.tpa,
                extension=ArpExtension(magic=TARP_MAGIC, payload=ticket.encode()),
            )

        saved_transform = host.arp_tx_transform
        host.arp_tx_transform = transform

        saved_rx_cost = host.arp_rx_cost
        host.arp_rx_cost = lambda arp: (
            self.cost_model.verify_time
            if arp.extension is not None and arp.extension.magic == TARP_MAGIC
            else 0.0
        )
        # Attaching a pre-issued ticket costs nothing but a lookup.
        saved_tx_cost = host.arp_tx_cost
        host.arp_tx_cost = lambda arp: (
            self.cost_model.lookup_time
            if arp.extension is not None and arp.extension.magic == TARP_MAGIC
            else 0.0
        )

        self._attach(host.arp_guards, self._guard)

        def restore() -> None:
            host.profile = saved_profile
            host.arp_tx_transform = saved_transform
            host.arp_rx_cost = saved_rx_cost
            host.arp_tx_cost = saved_tx_cost

        self._on_teardown(restore)

    # ------------------------------------------------------------------
    def _guard(
        self, host: Host, arp: ArpPacket, frame: EthernetFrame
    ) -> Optional[bool]:
        if arp.is_request and not arp.is_gratuitous:
            return None
        if arp.extension is None or arp.extension.magic != TARP_MAGIC:
            self.unticketed_dropped += 1
            if self.alert_on_invalid:
                # Plain ARP from unenrolled hosts is routine: log only.
                self.raise_alert(
                    time=host.sim.now,
                    severity=Severity.INFO,
                    kind="unticketed-arp",
                    ip=arp.spa,
                    mac=arp.sha,
                    message=f"dropped by {host.name}",
                    dedup_window=60.0,
                )
            return False
        try:
            ticket = Ticket.decode(arp.extension.payload)
        except CryptoError:
            return self._reject(host, arp, "malformed ticket")
        assert self.lta is not None
        if ticket.ip != arp.spa or ticket.mac != arp.sha:
            return self._reject(host, arp, "ticket does not match the ARP claim")
        if not ticket.valid_at(host.sim.now):
            return self._reject(host, arp, "expired or not-yet-valid ticket")
        if not ticket.verify(self.lta.public_key):
            return self._reject(host, arp, "LTA signature invalid")
        self.tickets_verified += 1
        # Commit under the TARP source label, then let normal processing
        # complete pending resolutions.
        host.arp_cache.put(arp.spa, arp.sha, now=host.sim.now, source=BindingSource.TARP)
        return True

    def _reject(self, host: Host, arp: ArpPacket, why: str) -> bool:
        self.tickets_rejected += 1
        if self.alert_on_invalid:
            self.raise_alert(
                time=host.sim.now,
                severity=Severity.CRITICAL,
                kind="invalid-ticket",
                ip=arp.spa,
                mac=arp.sha,
                message=f"{host.name}: {why}",
                dedup_window=60.0,
            )
        return False

    def ticket_for(self, host_name: str) -> Optional[Ticket]:
        """Expose a host's ticket (used by the replay-attack analysis)."""
        return self._tickets.get(host_name)

    def state_size(self) -> int:
        return len(self._tickets)
