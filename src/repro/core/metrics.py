"""Quantitative metrics: what the evaluation actually measures.

Ground truth lives here — the experiment knows the attacker's MAC, the
true bindings, and exactly when each attack ran, so alerts can be scored
into true/false positives, poisoning can be integrated over time (by a
:class:`PoisonTracker` named before the run), and overheads can be
compared against a no-scheme baseline.  Schemes never see any of this.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.net.addresses import Ipv4Address, MacAddress
from repro.schemes.base import Alert, Severity
from repro.stack.arp_cache import ArpCacheChange
from repro.stack.host import Host

__all__ = [
    "GroundTruth",
    "AlertScore",
    "score_alerts",
    "PoisonTracker",
    "poisoned_seconds",
    "was_ever_poisoned",
    "detection_latency",
    "mean",
    "percentile",
]

#: Severities that count as "the operator got paged".
ACTIONABLE = (Severity.WARNING, Severity.CRITICAL)


@dataclass(frozen=True)
class GroundTruth:
    """What really happened, for scoring purposes."""

    true_bindings: Dict[Ipv4Address, MacAddress]
    attacker_macs: Set[MacAddress]
    attack_intervals: Sequence[Tuple[float, float]] = ()
    #: IPs whose bindings the attack actually tried to corrupt.
    targeted_ips: Set[Ipv4Address] = field(default_factory=set)
    #: Grace period after an attack stops during which alerts still count
    #: as true positives (verification delays land slightly late).
    slack: float = 2.0

    def during_attack(self, time: float) -> bool:
        return any(b <= time <= e + self.slack for b, e in self.attack_intervals)


@dataclass
class AlertScore:
    """Alert classification for one scheme run."""

    true_positives: List[Alert] = field(default_factory=list)
    false_positives: List[Alert] = field(default_factory=list)
    informational: List[Alert] = field(default_factory=list)

    @property
    def tp_count(self) -> int:
        return len(self.true_positives)

    @property
    def fp_count(self) -> int:
        return len(self.false_positives)

    @property
    def precision(self) -> float:
        total = self.tp_count + self.fp_count
        return self.tp_count / total if total else 1.0

    def fp_rate_per_hour(self, duration: float) -> float:
        if duration <= 0:
            return 0.0
        return self.fp_count / (duration / 3600.0)


def score_alerts(alerts: Sequence[Alert], truth: GroundTruth) -> AlertScore:
    """Split a scheme's alerts into TP / FP / informational.

    An actionable alert is a true positive when it fired during (or just
    after) an attack interval **and** implicates the attack — either by
    naming an attacker MAC, or by naming an IP the attack targeted.
    Actionable alerts outside attacks, or pointing at innocents, are
    false positives.  Info-severity alerts are counted separately (they
    are logs, not pages).
    """
    score = AlertScore()
    for alert in alerts:
        if alert.severity not in ACTIONABLE:
            score.informational.append(alert)
            continue
        implicates = (alert.mac is not None and alert.mac in truth.attacker_macs) or (
            alert.ip is not None and alert.ip in truth.targeted_ips
        )
        if truth.during_attack(alert.time) and implicates:
            score.true_positives.append(alert)
        else:
            score.false_positives.append(alert)
    return score


def detection_latency(
    alerts: Sequence[Alert], truth: GroundTruth
) -> Optional[float]:
    """Seconds from the first attack start to the first true positive."""
    if not truth.attack_intervals:
        return None
    start = min(b for b, _ in truth.attack_intervals)
    score = score_alerts(alerts, truth)
    if not score.true_positives:
        return None
    first = min(a.time for a in score.true_positives)
    return max(0.0, first - start)


class PoisonTracker:
    """Poisoned time of one watched binding, kept as the cache changes.

    Watches ``host``'s binding for ``ip``, whose true owner is
    ``true_mac``, from the moment it is created (its *since*): it reads
    the binding as the cache holds it then, and subscribes to the cache's
    change notifications.  A binding counts as poisoned from a put or pin
    of a wrong MAC until the next put or pin of any MAC.  Absence of an
    entry counts as not poisoned (fail-stop, not fail-subverted), and an
    entry that expires or is removed keeps its last MAC for this account,
    because the cache notifies only puts and pins.

    ``windows`` are the half-open ``[start, end)`` intervals whose
    poisoned seconds :func:`poisoned_seconds` reports, in that order.  A
    window opening before *since* counts from *since*; an ``end`` of
    ``None`` leaves the window open until the query.  The tracker keeps
    a cursor, a MAC and a running sum per window, and the ever-poisoned
    flag that :func:`was_ever_poisoned` reads: its state does not grow
    with the run.

    It holds no reference to the host or its cache, so a finished run
    still frees itself by reference counting.
    """

    def __init__(
        self,
        host: Host,
        ip: Ipv4Address,
        true_mac: MacAddress,
        windows: Sequence[Tuple[float, Optional[float]]] = (),
    ) -> None:
        self.ip = ip
        self.true_mac = true_mac
        since = host.sim.now
        entry = host.arp_cache.entry(ip)
        mac = entry.mac if entry is not None else None
        #: Did a wrong MAC land at or after ``since``?
        self.ever_poisoned = (
            entry is not None and entry.updated_at >= since and mac != true_mac
        )
        inf = float("inf")
        #: Per window: [start, end, MAC held, cursor, seconds so far].
        self._windows: List[list] = []
        for lo, hi in windows:
            lo = max(lo, since)
            self._windows.append([lo, inf if hi is None else hi, mac, lo, 0.0])
        host.arp_cache.on_change(self._on_change)

    def _on_change(self, change: ArpCacheChange) -> None:
        if change.ip != self.ip:
            return
        time, mac, true_mac = change.time, change.new_mac, self.true_mac
        if mac != true_mac:
            self.ever_poisoned = True
        for window in self._windows:
            lo, hi, held, cursor, _ = window
            if time >= hi:
                continue
            if time > lo:
                if held is not None and held != true_mac:
                    window[4] += time - cursor
                window[3] = time
            window[2] = mac


def poisoned_seconds(tracker: PoisonTracker, end: float) -> Tuple[float, ...]:
    """Time within each of ``tracker``'s windows, closed at ``end`` at the
    latest, that its host held a wrong MAC for the watched IP."""
    true_mac = tracker.true_mac
    out = []
    for lo, hi, held, cursor, seconds in tracker._windows:
        hi = min(hi, end)
        if hi <= lo:
            out.append(0.0)
        elif held is not None and held != true_mac:
            out.append(seconds + (hi - cursor))
        else:
            out.append(seconds)
    return tuple(out)


def was_ever_poisoned(tracker: PoisonTracker) -> bool:
    """Did ``tracker``'s host bind the watched IP to a wrong MAC at or
    after the tracker was created?"""
    return tracker.ever_poisoned


# ----------------------------------------------------------------------
# Small stats helpers (kept dependency-free)
# ----------------------------------------------------------------------
def mean(values: Sequence[float]) -> float:
    """Arithmetic mean; 0 on empty input (missing data, not an error)."""
    return sum(values) / len(values) if values else 0.0


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile; 0 on empty input."""
    if not values:
        return 0.0
    if not 0 <= pct <= 100:
        raise ValueError(f"percentile must be in [0, 100], got {pct}")
    ordered = sorted(values)
    rank = max(1, round(pct / 100 * len(ordered)))
    return ordered[rank - 1]
