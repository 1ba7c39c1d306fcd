"""Scheme 12 — the paper's proposal: a hybrid passive+active detector.

The analysis's conclusion is that no single cheap technique suffices:
passive databases drown the operator in churn alarms, and naive active
probing wastes traffic verifying changes DHCP already explains.  The
hybrid combines three information sources on the monitor station:

1. an arpwatch-style passive binding database;
2. DHCP awareness — ACK/RELEASE traffic snooped off the mirror port
   explains most legitimate rebindings before they are ever flagged;
3. active verification — only the rebindings DHCP cannot explain get a
   probe of the previous owner, and only a *live* previous owner raises
   the alarm.

It also keeps the cheap instantaneous signatures (Ethernet/ARP header
mismatch, reply storms), because they catch lazy tools at zero cost.
The result, quantified in Tables 2–3 and Figure 1: detection coverage of
a passive monitor, false-positive behaviour close to zero under churn,
at the price of a small probe budget and a verification delay.

A station with no IP (a replay, ``add_monitor(with_ip=False)``) cannot
probe, so there an unexplained rebinding is recorded and alerted as the
``changed``/``flip-flop`` event the database reports.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Tuple

from repro.net.addresses import Ipv4Address, MacAddress
from repro.packets.arp import ArpPacket
from repro.packets.dhcp import DhcpMessage, DhcpMessageType
from repro.packets.ethernet import EthernetFrame
from repro.schemes.base import Coverage, SchemeProfile, Severity
from repro.schemes.monitor_base import BindingDatabase, MonitorScheme, Verification

__all__ = ["HybridDetector"]


class HybridDetector(MonitorScheme):
    """Passive DB + DHCP awareness + targeted active verification."""

    profile = SchemeProfile(
        key="hybrid",
        display_name="Hybrid passive+active detector (this paper)",
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
            "detection only: the first poisoned packets still land",
            "attacker who silences the victim first evades the probe",
            "needs a mirror port and a monitor with send capability",
        ),
        reference="the modest scheme proposed by the analyzed paper",
    )

    def __init__(
        self,
        probe_timeout: float = 0.5,
        probe_retries: int = 0,
        dhcp_grace: float = 30.0,
        storm_threshold: int = 12,
        storm_window: float = 10.0,
        scan_threshold: int = 16,
        scan_window: float = 10.0,
    ) -> None:
        super().__init__()
        self.db = BindingDatabase()
        self.probe_timeout = probe_timeout
        self.probe_retries = probe_retries
        self.dhcp_grace = dhcp_grace
        self.storm_threshold = storm_threshold
        self.storm_window = storm_window
        self.scan_threshold = scan_threshold
        self.scan_window = scan_window
        #: source MAC -> [(time, distinct target)] for sweep detection
        self._request_fanout: Dict[MacAddress, Deque[Tuple[float, Ipv4Address]]] = {}
        #: ip -> (mac, time of last DHCP ACK)
        self.dhcp_recent: Dict[Ipv4Address, Tuple[MacAddress, float]] = {}
        self._reply_times: Dict[Tuple[Ipv4Address, MacAddress], Deque[float]] = {}
        self._storm_alerted: Dict[Tuple[Ipv4Address, MacAddress], float] = {}
        self.confirmed_attacks = 0
        self.dhcp_explained = 0
        self.benign_rebinds = 0
        #: rebindings alerted without a probe (the station has no IP)
        self.unverified_rebinds = 0

    # ------------------------------------------------------------------
    # DHCP awareness
    # ------------------------------------------------------------------
    def on_dhcp(self, message: DhcpMessage, frame: EthernetFrame, now: float) -> None:
        if message.message_type == DhcpMessageType.ACK and not message.yiaddr.is_unspecified:
            self.dhcp_recent[message.yiaddr] = (message.chaddr, now)
        elif message.message_type == DhcpMessageType.RELEASE:
            self.dhcp_recent.pop(message.ciaddr, None)

    def _dhcp_explains(self, ip: Ipv4Address, mac: MacAddress, now: float) -> bool:
        record = self.dhcp_recent.get(ip)
        if record is None:
            return False
        lease_mac, when = record
        return lease_mac == mac and now - when <= self.dhcp_grace

    # ------------------------------------------------------------------
    # ARP path
    # ------------------------------------------------------------------
    def on_arp(self, arp: ArpPacket, frame: EthernetFrame, now: float) -> None:
        # Cheap instantaneous signature: header/payload source mismatch.
        if not arp.spa.is_unspecified and frame.src != arp.sha:
            self.raise_alert(
                time=now,
                severity=Severity.WARNING,
                kind="ether-arp-mismatch",
                ip=arp.spa,
                mac=arp.sha,
                message=f"frame src {frame.src}",
                dedup_window=60.0,
            )
        if arp.is_request and not arp.is_gratuitous:
            self._note_request(arp, frame, now)
        if arp.spa.is_unspecified:
            return
        if arp.is_reply:
            self._note_reply(arp, now)
        pending = self._pending.get(arp.spa)
        if pending is not None:
            if arp.sha == pending.old_mac:
                pending.answered = True
            return
        station = self.db.get(arp.spa)
        if station is None:
            self.db.observe(arp.spa, arp.sha, now)
            return
        if station.mac == arp.sha:
            self.db.observe(arp.spa, arp.sha, now)
            return
        # A rebinding.  First ask DHCP.
        if self._dhcp_explains(arp.spa, arp.sha, now):
            self.dhcp_explained += 1
            self.db.observe(arp.spa, arp.sha, now)
            return
        # DHCP cannot explain it: verify the old owner actively, or,
        # when the station has no IP to probe from, report the change.
        if self.monitor.ip is not None:
            self.verify_rebinding(
                arp.spa, station.mac, arp.sha, now, timeout=self.probe_timeout,
                retries=self.probe_retries, name="hybrid.verify",
            )
            return
        self.unverified_rebinds += 1
        event, previous = self.db.observe(arp.spa, arp.sha, now)
        self.raise_alert(
            time=now,
            severity=Severity.WARNING,
            kind=event,
            ip=arp.spa,
            mac=arp.sha,
            message=f"was {previous}",
            dedup_window=60.0,
        )

    def _note_request(
        self, arp: ArpPacket, frame: EthernetFrame, now: float
    ) -> None:
        """Sweep heuristic: one source asking about many distinct targets
        in a short window is reconnaissance, not resolution."""
        fanout = self._request_fanout.setdefault(frame.src, deque())
        fanout.append((now, arp.tpa))
        cutoff = now - self.scan_window
        while fanout and fanout[0][0] < cutoff:
            fanout.popleft()
        distinct = {target for _, target in fanout}
        if len(distinct) >= self.scan_threshold:
            self.raise_alert(
                time=now,
                severity=Severity.WARNING,
                kind="arp-scan",
                mac=frame.src,
                message=(
                    f"{len(distinct)} distinct targets probed in "
                    f"{self.scan_window:.0f}s"
                ),
                dedup_window=60.0,
                dedup_key=("arp-scan", frame.src),
            )

    def _note_reply(self, arp: ArpPacket, now: float) -> None:
        """Reply-storm heuristic: re-poisoning tools repeat themselves."""
        key = (arp.spa, arp.sha)
        times = self._reply_times.setdefault(key, deque())
        times.append(now)
        cutoff = now - self.storm_window
        while times and times[0] < cutoff:
            times.popleft()
        if len(times) >= self.storm_threshold:
            last = self._storm_alerted.get(key, -1e18)
            if now - last >= self.storm_window:
                self._storm_alerted[key] = now
                self.raise_alert(
                    time=now,
                    severity=Severity.WARNING,
                    kind="arp-reply-storm",
                    ip=arp.spa,
                    mac=arp.sha,
                    message=f"{len(times)} replies in {self.storm_window:.0f}s",
                )

    # ------------------------------------------------------------------
    # Active verification
    # ------------------------------------------------------------------
    def on_verdict(self, ip: Ipv4Address, pending: Verification, now: float) -> None:
        if pending.answered:
            self.confirmed_attacks += 1
            self.raise_alert(
                time=now,
                severity=Severity.CRITICAL,
                kind="verified-poisoning",
                ip=ip,
                mac=pending.new_mac,
                message=f"previous owner {pending.old_mac} answered the probe",
                dedup_window=60.0,
            )
        else:
            self.benign_rebinds += 1
            self.db.observe(ip, pending.new_mac, now)
            self.raise_alert(
                time=now,
                severity=Severity.INFO,
                kind="station-changed",
                ip=ip,
                mac=pending.new_mac,
                message=f"previous owner {pending.old_mac} silent; accepted",
            )

    def state_size(self) -> int:
        return len(self.db) + len(self.dhcp_recent) + len(self._pending)
