"""The switch's CAM (content-addressable memory) table.

Capacity and aging are first-class because MAC flooding exploits exactly
these: once the table is full a real switch can no longer learn new
stations and floods their traffic ("fail-open"), which is what turns a
switch back into a hub for an eavesdropper.

Aging is amortized: a *next-expiry watermark* (the earliest instant any
entry can age out) lets :meth:`CamTable.expire` return without walking
the table at all while ``now`` is below it.  The batched data plane
leans on this — one watermark check per frame batch instead of one full
sweep per frame — and the sweep/skip counts surface in
:data:`repro.perf.PERF` (``cam_sweeps`` / ``cam_sweep_skips``) so the
one-sweep-per-batch claim is measurable, not aspirational.

Entries live in one dict keyed by the packed 6-byte wire form, so the
switch's batch path resolves MACs straight from frame buffers
(:meth:`learn_wire`, :meth:`lookup_batch`) without constructing an
address object per frame; the :class:`~repro.net.addresses.MacAddress`
API (:meth:`learn`, :meth:`lookup`) reads the same dict through
``mac.packed``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence

from repro.net.addresses import MacAddress
from repro.perf import PERF

__all__ = ["CamEntry", "CamTable"]

#: Default CAM aging time, seconds (Cisco default is 300 s; MikroTik ~300 s).
DEFAULT_AGING = 300.0
#: Default capacity; the MikroTik hAP lite referenced in the field holds 1024.
DEFAULT_CAPACITY = 1024

_INF = float("inf")


@dataclass
class CamEntry:
    """One learned station."""

    mac: MacAddress
    port_index: int
    learned_at: float
    expires_at: float
    static: bool = False


class CamTable:
    """MAC -> port map with aging and a hard capacity.

    All time handling is explicit (callers pass ``now``) so the table stays
    a pure data structure, trivially testable.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        aging: float = DEFAULT_AGING,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if aging <= 0:
            raise ValueError(f"aging must be positive, got {aging}")
        self.capacity = capacity
        self.aging = aging
        #: The one index: packed wire bytes -> entry.
        self._by_wire: Dict[bytes, CamEntry] = {}
        #: Earliest instant any dynamic entry can expire.  Conservative:
        #: refreshes raise an entry's expiry without raising the watermark,
        #: so a sweep may find nothing — but no entry ever outlives the
        #: watermark unswept, which is what lets lookups skip age checks
        #: right after a bounded :meth:`expire`.
        self._next_expiry: float = _INF
        self.learn_failures = 0
        self.moves = 0
        self.sweeps = 0
        self.sweeps_skipped = 0

    def __len__(self) -> int:
        return len(self._by_wire)

    def __contains__(self, mac: MacAddress) -> bool:
        return mac.packed in self._by_wire

    def __iter__(self) -> Iterator[CamEntry]:
        return iter(self._by_wire.values())

    @property
    def is_full(self) -> bool:
        return len(self._by_wire) >= self.capacity

    def expire(self, now: float) -> int:
        """Drop aged-out entries; returns how many were removed.

        Amortized via the next-expiry watermark: while ``now`` is below
        the earliest possible expiry the call is O(1) — no sweep, nothing
        to drop.  Only when the watermark is crossed does the full walk
        run (and recompute the watermark from the survivors).
        """
        if now < self._next_expiry:
            self.sweeps_skipped += 1
            PERF.cam_sweep_skips += 1
            return 0
        self.sweeps += 1
        PERF.cam_sweeps += 1
        entries = self._by_wire
        dead = [
            packed
            for packed, entry in entries.items()
            if not entry.static and entry.expires_at <= now
        ]
        for packed in dead:
            del entries[packed]
        self._next_expiry = min(
            (e.expires_at for e in entries.values() if not e.static),
            default=_INF,
        )
        return len(dead)

    def learn(self, mac: MacAddress, port_index: int, now: float) -> bool:
        """Learn (or refresh) ``mac`` on ``port_index``.

        Returns ``False`` when the table is full and the MAC is new — the
        fail-open condition MAC flooding aims for.  Multicast/broadcast
        source addresses are never learned (they are invalid sources).
        """
        if mac.is_multicast:
            return False
        self.expire(now)
        return self.learn_wire(mac.packed, port_index, now)

    def learn_wire(self, packed: bytes, port_index: int, now: float) -> bool:
        """:meth:`learn` from packed wire bytes, for a *pre-expired* table.

        The batch data plane calls :meth:`expire` once per batch, then
        learns every frame's source through this O(1) path: one bytes-dict
        probe, no per-frame sweep, and a MacAddress is constructed only
        when the station is genuinely new.
        """
        entry = self._by_wire.get(packed)
        if entry is not None:
            if entry.static:
                return True
            if entry.port_index != port_index:
                self.moves += 1
                entry.port_index = port_index
            entry.expires_at = now + self.aging
            return True
        if packed[0] & 1:  # multicast/broadcast source: invalid, never learned
            return False
        if self.is_full:
            self.learn_failures += 1
            return False
        mac = MacAddress.from_wire(packed)
        entry = CamEntry(
            mac=mac,
            port_index=port_index,
            learned_at=now,
            expires_at=now + self.aging,
        )
        self._by_wire[mac.packed] = entry
        if entry.expires_at < self._next_expiry:
            self._next_expiry = entry.expires_at
        return True

    def add_static(self, mac: MacAddress, port_index: int, now: float) -> None:
        """Pin a station to a port (never ages, never moves)."""
        entry = CamEntry(
            mac=mac,
            port_index=port_index,
            learned_at=now,
            expires_at=_INF,
            static=True,
        )
        self._by_wire[mac.packed] = entry

    def lookup(self, mac: MacAddress, now: float) -> Optional[int]:
        """Port index for ``mac``, or ``None`` (flood)."""
        packed = mac.packed
        entry = self._by_wire.get(packed)
        if entry is None:
            return None
        if not entry.static and entry.expires_at <= now:
            del self._by_wire[packed]
            return None
        return entry.port_index

    def lookup_batch(
        self, packed_macs: Sequence[bytes], now: float
    ) -> List[Optional[int]]:
        """Resolve a batch of packed destination MACs in one pass.

        Runs exactly one (watermark-bounded) :meth:`expire` sweep up
        front, after which every probe is a bare bytes-dict ``get`` —
        no per-frame age check is needed because nothing in the table
        can be stale once the sweep has run for ``now``.
        """
        self.expire(now)
        get = self._by_wire.get
        out: List[Optional[int]] = []
        append = out.append
        for packed in packed_macs:
            entry = get(packed)
            append(entry.port_index if entry is not None else None)
        return out

    def entries_on_port(self, port_index: int) -> list[CamEntry]:
        return [e for e in self._by_wire.values() if e.port_index == port_index]

    def flush(self) -> None:
        self._by_wire.clear()
        self._next_expiry = _INF

    def flush_port(self, port_index: int) -> int:
        """Forget every dynamic station on ``port_index`` (link-down).

        Static entries survive — port security re-validates them itself.
        Returns how many entries were dropped.
        """
        entries = self._by_wire
        dead = [
            packed
            for packed, entry in entries.items()
            if entry.port_index == port_index and not entry.static
        ]
        for packed in dead:
            del entries[packed]
        return len(dead)

    def utilization(self) -> float:
        """Fill fraction in [0, 1] — MAC-flood detectors watch this."""
        return len(self._by_wire) / self.capacity
