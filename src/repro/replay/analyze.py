"""``repro analyze``: the paper's passive detectors replayed over a capture.

The capture runs through :class:`~repro.replay.engine.ReplayEngine` into
the hybrid detector (passive: the replay station has no IP to probe
from) stacked with Snort's arpspoof rules.  :class:`CaptureAnalysis` is
the engine's per-frame observer: it tallies protocol counts from the
frame bytes, so the engine hands it every frame, the ones the capture
filter would drop included.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence, Union

from repro.analysis.pcap import capture_filter
from repro.errors import CodecError
from repro.net.addresses import Ipv4Address, MacAddress
from repro.packets.arp import ArpPacket
from repro.replay.engine import ReplayEngine
from repro.replay.sources import FrameSource
from repro.schemes.base import Alert
from repro.schemes.hybrid import HybridDetector
from repro.schemes.monitor_base import decode_dhcp
from repro.schemes.snort import SnortArpspoof
from repro.schemes.stack import SchemeStack

__all__ = ["CaptureAnalysis", "analyze"]


class CaptureAnalysis:
    """Frame tallies plus the passive stack's alerts for one capture."""

    frames = undecodable = dhcp_messages = 0
    arp_packets = arp_requests = arp_replies = gratuitous = 0
    #: Filled in by :func:`analyze` once the replay has finished.
    skew = stations = rebindings = dhcp_explained = 0
    alerts: Sequence[Alert] = ()

    def __call__(self, ts: float, raw: bytes) -> None:
        self.frames += 1
        if len(raw) < 14 or raw[12] < 0x06:
            self.undecodable += 1  # runt, or an 802.3 length field
        elif raw[12] == 0x08 and raw[13] == 0x06:
            try:
                arp = ArpPacket.decode(raw[14:])
            except CodecError:
                self.undecodable += 1
                return
            self.arp_packets += 1
            if arp.is_request:
                self.arp_requests += 1
            else:
                self.arp_replies += 1
            if arp.is_gratuitous:
                self.gratuitous += 1
        elif capture_filter(raw, 0, len(raw)) and decode_dhcp(raw[14:]) is not None:
            self.dhcp_messages += 1

    def of(self, kind: str) -> List[Alert]:
        return [alert for alert in self.alerts if alert.kind == kind]

    def render(self) -> str:
        """A human-readable incident report."""
        lines = [
            f"frames: {self.frames}  (undecodable: {self.undecodable}, "
            f"out of order: {self.skew})",
            f"arp: {self.arp_packets} ({self.arp_requests} req / "
            f"{self.arp_replies} rep, {self.gratuitous} gratuitous)",
            f"dhcp messages: {self.dhcp_messages}",
            f"stations: {self.stations}  rebinding events: {self.rebindings} "
            f"({self.dhcp_explained} explained by dhcp)",
        ]
        if self.alerts:
            lines.append("findings:")
            lines.extend(f"  {alert}" for alert in self.alerts)
        else:
            lines.append("findings: none")
        return "\n".join(lines)


def analyze(
    source: Union[str, Mapping[str, object], FrameSource],
    inventory: Optional[Mapping[Ipv4Address, MacAddress]] = None,
    **hybrid_options,
) -> CaptureAnalysis:
    """Replay ``source`` frame by frame through hybrid + snort-arpspoof.

    ``inventory`` is the IP→MAC map Snort defends (empty by default);
    ``hybrid_options`` go to :class:`HybridDetector`.
    """
    report = CaptureAnalysis()
    with ReplayEngine(inventory=inventory, observer=report) as engine:
        hybrid = HybridDetector(**hybrid_options)
        stack = engine.install(SchemeStack([hybrid, SnortArpspoof()]))
        report.skew = int(engine.run(source)["skew"])
        report.stations = len(hybrid.db)
        report.rebindings = hybrid.dhcp_explained + hybrid.unverified_rebinds
        report.dhcp_explained = hybrid.dhcp_explained
        report.alerts = stack.alerts
    return report
