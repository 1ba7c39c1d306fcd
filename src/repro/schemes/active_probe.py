"""Scheme 10 — active-probe verification (ArpON/XArp-style active module).

Passive monitors cannot tell a poisoning from a legitimate NIC swap;
active ones can ask.  On every observed rebinding the monitor pings the
*previous* MAC directly (frame addressed at the old NIC, bypassing ARP).
A reply means the old owner is alive and well — so the new claim is a
live impersonation and a high-confidence alarm fires.  Silence means the
station really changed and the database is updated quietly.

Costs the analysis charges: probe traffic on every rebinding, a
verification delay before the alarm, and a residual false-negative: an
attacker who first silences the victim (DoS, unplug) passes the probe.
"""

from __future__ import annotations

from repro.net.addresses import Ipv4Address
from repro.packets.arp import ArpPacket
from repro.packets.ethernet import EthernetFrame
from repro.schemes.base import Coverage, SchemeProfile, Severity
from repro.schemes.monitor_base import BindingDatabase, MonitorScheme, Verification

__all__ = ["ActiveProbe"]


class ActiveProbe(MonitorScheme):
    """Verify rebindings by pinging the previous owner."""

    profile = SchemeProfile(
        key="active-probe",
        display_name="Active probe verifier",
        kind="detection",
        placement="monitor",
        requires_infra_change=False,
        requires_host_change=False,
        requires_crypto=False,
        supports_dhcp_networks=True,
        cost="low",
        claimed_coverage={
            "reply": Coverage.DETECTS,
            "request": Coverage.DETECTS,
            "gratuitous": Coverage.DETECTS,
            "reactive": Coverage.DETECTS,
        },
        limitations=(
            "monitor needs an IP and send capability (not purely passive)",
            "attacker who silences the victim first passes verification",
            "probe traffic grows with rebinding rate",
            "cold start: the first observed binding is trusted",
        ),
        reference="active verification as in ArpON / XArp active modules",
    )

    def __init__(self, probe_timeout: float = 0.5, probe_retries: int = 2) -> None:
        super().__init__()
        self.db = BindingDatabase()
        self.probe_timeout = probe_timeout
        self.probe_retries = probe_retries
        self.confirmed_attacks = 0
        self.benign_rebinds = 0

    def on_arp(self, arp: ArpPacket, frame: EthernetFrame, now: float) -> None:
        if arp.spa.is_unspecified:
            return
        if arp.spa in self._pending:
            pending = self._pending[arp.spa]
            if arp.sha == pending.old_mac:
                pending.answered = True  # old owner still talking
            return
        station = self.db.get(arp.spa)
        if station is None or station.mac == arp.sha:
            self.db.observe(arp.spa, arp.sha, now)
            return
        self.verify_rebinding(
            arp.spa, station.mac, arp.sha, now, timeout=self.probe_timeout,
            retries=self.probe_retries, name="active-probe",
        )

    def on_verdict(self, ip: Ipv4Address, pending: Verification, now: float) -> None:
        if pending.answered:
            self.confirmed_attacks += 1
            self.raise_alert(
                time=now,
                severity=Severity.CRITICAL,
                kind="verified-poisoning",
                ip=ip,
                mac=pending.new_mac,
                message=f"previous owner {pending.old_mac} still alive",
                dedup_window=60.0,
            )
            # Keep the (probably legitimate) old binding on record.
        else:
            self.benign_rebinds += 1
            self.db.observe(ip, pending.new_mac, now)

    def state_size(self) -> int:
        return len(self.db) + len(self._pending)
