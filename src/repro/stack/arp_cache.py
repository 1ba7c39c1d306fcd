"""Per-host ARP cache.

The cache is the thing the whole paper is about poisoning.  It records
where each binding came from (``source``) and exposes change
notifications — host-resident detectors (the middleware scheme) and the
metrics layer's poisoning trackers both subscribe to those.  It keeps no
log of past changes: what a cache holds is bounded by its bindings, not
by how long the run lasts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, Optional, Tuple

from repro.net.addresses import Ipv4Address, MacAddress

__all__ = ["ArpCacheEntry", "ArpCacheChange", "ArpCache", "BindingSource"]


class BindingSource:
    """How a cache entry got there (for auditability and detection)."""

    STATIC = "static"
    SOLICITED_REPLY = "solicited-reply"
    UNSOLICITED_REPLY = "unsolicited-reply"
    REQUEST = "request"
    GRATUITOUS = "gratuitous"
    DHCP = "dhcp"
    SARP = "sarp"
    TARP = "tarp"


@dataclass
class ArpCacheEntry:
    """One IP -> MAC binding."""

    ip: Ipv4Address
    mac: MacAddress
    expires_at: float
    source: str
    static: bool = False
    updated_at: float = 0.0


@dataclass(frozen=True)
class ArpCacheChange:
    """Emitted whenever a binding is created, changed or refreshed."""

    time: float
    ip: Ipv4Address
    old_mac: Optional[MacAddress]
    new_mac: MacAddress
    source: str

    @property
    def is_rebinding(self) -> bool:
        """True when an existing IP flipped to a different MAC."""
        return self.old_mac is not None and self.old_mac != self.new_mac


class ArpCache:
    """A mutable IP -> MAC table with expiry, pinning and change hooks.

    ``capacity`` bounds the table like a real kernel neighbor table
    (Linux ``gc_thresh3``); when full, inserting a new dynamic binding
    evicts the least-recently-updated dynamic entry.  That eviction is
    exactly what neighbor-table exhaustion attacks exploit.
    """

    def __init__(
        self, default_timeout: float = 60.0, capacity: Optional[int] = None
    ) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.default_timeout = default_timeout
        self.capacity = capacity
        self._entries: Dict[Ipv4Address, ArpCacheEntry] = {}
        #: Replaced, never mutated, by subscribe and unsubscribe, so a
        #: dispatch iterates the snapshot it started with.
        self._listeners: Tuple[Callable[[ArpCacheChange], None], ...] = ()
        self.rejected_updates = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    # Subscription
    # ------------------------------------------------------------------
    def on_change(
        self, listener: Callable[[ArpCacheChange], None]
    ) -> Callable[[], None]:
        """Call ``listener`` with every put and pin from now on.

        Returns the function that unsubscribes it.  A listener that
        unsubscribes (itself or another) during a dispatch is still
        called for that change.
        """
        self._listeners += (listener,)

        def unsubscribe() -> None:
            listeners = list(self._listeners)
            if listener in listeners:
                listeners.remove(listener)
                self._listeners = tuple(listeners)

        return unsubscribe

    def _notify(self, change: ArpCacheChange) -> None:
        for listener in self._listeners:
            listener(change)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def put(
        self,
        ip: Ipv4Address,
        mac: MacAddress,
        now: float,
        source: str,
        timeout: Optional[float] = None,
    ) -> bool:
        """Insert or update a dynamic binding.

        Returns ``False`` (and counts a rejection) when the entry is
        pinned static — static entries are exactly the "immune to dynamic
        updates" prevention mechanism.
        """
        existing = self._entries.get(ip)
        if existing is not None and existing.static:
            self.rejected_updates += 1
            return False
        if existing is None and self.capacity is not None:
            self._evict_if_full(now)
        old_mac = existing.mac if existing is not None else None
        ttl = self.default_timeout if timeout is None else timeout
        self._entries[ip] = ArpCacheEntry(
            ip=ip,
            mac=mac,
            expires_at=now + ttl,
            source=source,
            updated_at=now,
        )
        if self._listeners:
            self._notify(
                ArpCacheChange(time=now, ip=ip, old_mac=old_mac, new_mac=mac, source=source)
            )
        return True

    def _evict_if_full(self, now: float) -> None:
        """Free one slot: drop expired dynamics first, then the LRU one."""
        assert self.capacity is not None
        if len(self._entries) < self.capacity:
            return
        expired = [
            ip
            for ip, entry in self._entries.items()
            if not entry.static and entry.expires_at <= now
        ]
        if expired:
            del self._entries[expired[0]]
            return
        dynamics = [e for e in self._entries.values() if not e.static]
        if not dynamics:
            return  # table pinned solid; insertion will exceed capacity
        victim = min(dynamics, key=lambda e: e.updated_at)
        del self._entries[victim.ip]
        self.evictions += 1

    def pin(self, ip: Ipv4Address, mac: MacAddress, now: float = 0.0) -> None:
        """Install a static (poison-proof) binding."""
        old = self._entries.get(ip)
        old_mac = old.mac if old is not None else None
        self._entries[ip] = ArpCacheEntry(
            ip=ip,
            mac=mac,
            expires_at=float("inf"),
            source=BindingSource.STATIC,
            static=True,
            updated_at=now,
        )
        if self._listeners:
            self._notify(
                ArpCacheChange(
                    time=now, ip=ip, old_mac=old_mac, new_mac=mac,
                    source=BindingSource.STATIC,
                )
            )

    def unpin(self, ip: Ipv4Address) -> None:
        entry = self._entries.get(ip)
        if entry is not None and entry.static:
            del self._entries[ip]

    def invalidate(self, ip: Ipv4Address) -> None:
        self._entries.pop(ip, None)

    def age_out(self, ip: Ipv4Address) -> bool:
        """Remove a *dynamic* entry (models natural expiry); static stays."""
        entry = self._entries.get(ip)
        if entry is None or entry.static:
            return False
        del self._entries[ip]
        return True

    def flush_dynamic(self) -> None:
        self._entries = {ip: e for ip, e in self._entries.items() if e.static}

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def get(self, ip: Ipv4Address, now: float) -> Optional[MacAddress]:
        entry = self._entries.get(ip)
        if entry is None:
            return None
        if not entry.static and entry.expires_at <= now:
            del self._entries[ip]
            return None
        return entry.mac

    def entry(self, ip: Ipv4Address) -> Optional[ArpCacheEntry]:
        """Raw entry access (no expiry side effects) for inspection."""
        return self._entries.get(ip)

    def __contains__(self, ip: Ipv4Address) -> bool:
        return ip in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[ArpCacheEntry]:
        return iter(self._entries.values())
