"""MAC and IPv4 address value types.

These are small immutable objects used throughout the library instead of
raw strings/ints so that parsing and formatting mistakes surface once, at
construction, instead of deep inside a codec.  Both types round-trip to
the exact wire encodings used by :mod:`repro.packets`.
"""

from __future__ import annotations

import random
import re
from functools import lru_cache, total_ordering
from typing import Iterator, Optional, Union

from repro.errors import AddressError

__all__ = [
    "MacAddress",
    "Ipv4Address",
    "Ipv4Network",
    "BROADCAST_MAC",
    "ZERO_MAC",
    "ZERO_IP",
    "BROADCAST_IP",
    "intern_stats",
]

#: Bound on each intern cache; a LAN simulation touches far fewer distinct
#: addresses, so in practice the caches never evict.
_INTERN_CAPACITY = 8192

_MAC_RE = re.compile(r"^([0-9A-Fa-f]{2})([:\-][0-9A-Fa-f]{2}){5}$")


@total_ordering
class MacAddress:
    """A 48-bit Ethernet hardware address.

    Accepts another :class:`MacAddress`, a ``bytes`` of length 6, an int in
    ``[0, 2**48)``, or a string in ``aa:bb:cc:dd:ee:ff`` /
    ``aa-bb-cc-dd-ee-ff`` form.
    """

    __slots__ = ("_value", "_packed")

    def __init__(self, value: Union["MacAddress", bytes, int, str]) -> None:
        if isinstance(value, MacAddress):
            self._value = value._value
        elif isinstance(value, bytes):
            if len(value) != 6:
                raise AddressError(f"MAC bytes must have length 6, got {len(value)}")
            self._value = int.from_bytes(value, "big")
        elif isinstance(value, int):
            if not 0 <= value < 1 << 48:
                raise AddressError(f"MAC int out of range: {value}")
            self._value = value
        elif isinstance(value, str):
            if not _MAC_RE.match(value):
                raise AddressError(f"malformed MAC address: {value!r}")
            self._value = int(value.replace("-", ":").replace(":", ""), 16)
        else:
            raise AddressError(f"cannot build MacAddress from {type(value).__name__}")
        self._packed: Optional[bytes] = None

    @classmethod
    def from_wire(cls, data: bytes) -> "MacAddress":
        """Interned constructor for the 6-byte wire encoding.

        Codecs parse the same handful of addresses over and over; this
        returns a shared instance per distinct wire value (bounded LRU)
        instead of re-parsing and re-allocating on every frame.
        """
        return _intern_mac(bytes(data))

    # -- representation -------------------------------------------------
    @property
    def packed(self) -> bytes:
        """The 6-byte wire encoding (computed once per instance)."""
        packed = self._packed
        if packed is None:
            packed = self._packed = self._value.to_bytes(6, "big")
        return packed

    def __str__(self) -> str:
        raw = f"{self._value:012x}"
        return ":".join(raw[i : i + 2] for i in range(0, 12, 2))

    def __repr__(self) -> str:
        return f"MacAddress('{self}')"

    def __int__(self) -> int:
        return self._value

    # -- semantics -------------------------------------------------------
    @property
    def is_broadcast(self) -> bool:
        return self._value == (1 << 48) - 1

    @property
    def is_multicast(self) -> bool:
        """True when the I/G bit is set (includes broadcast)."""
        return bool(self._value >> 40 & 0x01)

    @property
    def is_unicast(self) -> bool:
        return not self.is_multicast

    @property
    def is_locally_administered(self) -> bool:
        return bool(self._value >> 40 & 0x02)

    @property
    def oui(self) -> int:
        """The 24-bit organizationally unique identifier prefix."""
        return self._value >> 24

    # -- plumbing ---------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if isinstance(other, MacAddress):
            return self._value == other._value
        return NotImplemented

    def __lt__(self, other: "MacAddress") -> bool:
        if isinstance(other, MacAddress):
            return self._value < other._value
        return NotImplemented

    def __hash__(self) -> int:
        # The int itself: a MAC and an IP of equal value share a hash
        # bucket but never compare equal, so they stay distinct keys.
        return self._value

    @classmethod
    def random(cls, rng: random.Random, oui: Optional[int] = None) -> "MacAddress":
        """A random unicast address, optionally under a fixed vendor OUI.

        When no OUI is given the locally-administered bit is set, matching
        what real spoofing tools generate.
        """
        if oui is None:
            head = (rng.getrandbits(24) & ~0x010000 | 0x020000) << 24
        else:
            if not 0 <= oui < 1 << 24:
                raise AddressError(f"OUI out of range: {oui}")
            head = (oui & ~0x010000) << 24
        return cls(head | rng.getrandbits(24))


BROADCAST_MAC = MacAddress("ff:ff:ff:ff:ff:ff")
ZERO_MAC = MacAddress("00:00:00:00:00:00")


@total_ordering
class Ipv4Address:
    """A 32-bit IPv4 address."""

    __slots__ = ("_value", "_packed")

    def __init__(self, value: Union["Ipv4Address", bytes, int, str]) -> None:
        if isinstance(value, Ipv4Address):
            self._value = value._value
        elif isinstance(value, bytes):
            if len(value) != 4:
                raise AddressError(f"IPv4 bytes must have length 4, got {len(value)}")
            self._value = int.from_bytes(value, "big")
        elif isinstance(value, int):
            if not 0 <= value < 1 << 32:
                raise AddressError(f"IPv4 int out of range: {value}")
            self._value = value
        elif isinstance(value, str):
            parts = value.split(".")
            if len(parts) != 4:
                raise AddressError(f"malformed IPv4 address: {value!r}")
            acc = 0
            for part in parts:
                if not part.isdigit() or (len(part) > 1 and part[0] == "0"):
                    raise AddressError(f"malformed IPv4 octet in {value!r}")
                octet = int(part)
                if octet > 255:
                    raise AddressError(f"IPv4 octet out of range in {value!r}")
                acc = acc << 8 | octet
            self._value = acc
        else:
            raise AddressError(f"cannot build Ipv4Address from {type(value).__name__}")
        self._packed: Optional[bytes] = None

    @classmethod
    def from_wire(cls, data: bytes) -> "Ipv4Address":
        """Interned constructor for the 4-byte wire encoding (see
        :meth:`MacAddress.from_wire`)."""
        return _intern_ip(bytes(data))

    @property
    def packed(self) -> bytes:
        packed = self._packed
        if packed is None:
            packed = self._packed = self._value.to_bytes(4, "big")
        return packed

    def __str__(self) -> str:
        v = self._value
        return f"{v >> 24 & 255}.{v >> 16 & 255}.{v >> 8 & 255}.{v & 255}"

    def __repr__(self) -> str:
        return f"Ipv4Address('{self}')"

    def __int__(self) -> int:
        return self._value

    def __add__(self, offset: int) -> "Ipv4Address":
        return Ipv4Address((self._value + offset) & 0xFFFFFFFF)

    @property
    def is_unspecified(self) -> bool:
        return self._value == 0

    @property
    def is_broadcast(self) -> bool:
        return self._value == 0xFFFFFFFF

    @property
    def is_multicast(self) -> bool:
        return 0xE0000000 <= self._value < 0xF0000000

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Ipv4Address):
            return self._value == other._value
        return NotImplemented

    def __lt__(self, other: "Ipv4Address") -> bool:
        if isinstance(other, Ipv4Address):
            return self._value < other._value
        return NotImplemented

    def __hash__(self) -> int:
        return self._value  # see MacAddress.__hash__


ZERO_IP = Ipv4Address("0.0.0.0")
BROADCAST_IP = Ipv4Address("255.255.255.255")


@lru_cache(maxsize=_INTERN_CAPACITY)
def _intern_mac(packed: bytes) -> MacAddress:
    return MacAddress(packed)


@lru_cache(maxsize=_INTERN_CAPACITY)
def _intern_ip(packed: bytes) -> Ipv4Address:
    return Ipv4Address(packed)


def intern_stats() -> tuple[int, int]:
    """Aggregate ``(hits, misses)`` across both address intern caches.

    Read by :data:`repro.perf.PERF` to report the intern hit rate; cache
    maintenance itself is handled entirely by :func:`functools.lru_cache`.
    """
    mac_info = _intern_mac.cache_info()
    ip_info = _intern_ip.cache_info()
    return (mac_info.hits + ip_info.hits, mac_info.misses + ip_info.misses)


class Ipv4Network:
    """An IPv4 subnet in CIDR form, e.g. ``Ipv4Network('192.168.88.0/24')``.

    The mask and the broadcast address are derived once, at construction;
    a network is immutable.
    """

    __slots__ = ("network", "prefix", "_mask", "broadcast")

    def __init__(self, cidr: Union[str, "Ipv4Network"]) -> None:
        if isinstance(cidr, Ipv4Network):
            self.network = cidr.network
            self.prefix = cidr.prefix
            self._mask = cidr._mask
            self.broadcast = cidr.broadcast
            return
        try:
            addr_part, prefix_part = cidr.split("/")
        except ValueError:
            raise AddressError(f"malformed CIDR: {cidr!r}") from None
        try:
            prefix = int(prefix_part)
        except ValueError:
            raise AddressError(f"malformed CIDR prefix: {cidr!r}") from None
        if not 0 <= prefix <= 32:
            raise AddressError(f"CIDR prefix out of range: {cidr!r}")
        base = Ipv4Address(addr_part)
        mask = self._mask_for(prefix)
        if int(base) & ~mask:
            raise AddressError(f"CIDR has host bits set: {cidr!r}")
        self.network = base
        self.prefix = prefix
        self._mask = mask
        #: The subnet's directed broadcast address.
        self.broadcast = Ipv4Address(base._value | ~mask & 0xFFFFFFFF)

    @staticmethod
    def _mask_for(prefix: int) -> int:
        return 0 if prefix == 0 else ~((1 << (32 - prefix)) - 1) & 0xFFFFFFFF

    @property
    def netmask(self) -> Ipv4Address:
        return Ipv4Address(self._mask)

    @property
    def num_hosts(self) -> int:
        """Usable host addresses (excludes network and broadcast)."""
        total = 1 << (32 - self.prefix)
        return max(0, total - 2)

    def __contains__(self, address: Ipv4Address) -> bool:
        return address._value & self._mask == self.network._value

    def hosts(self) -> Iterator[Ipv4Address]:
        """Iterate usable host addresses in ascending order."""
        start = int(self.network) + 1
        end = int(self.broadcast)
        for value in range(start, end):
            yield Ipv4Address(value)

    def host(self, index: int) -> Ipv4Address:
        """The ``index``-th usable host address (1-based, like .1, .2 ...)."""
        if index < 1 or index > self.num_hosts:
            raise AddressError(
                f"host index {index} out of range for /{self.prefix} network"
            )
        return Ipv4Address(int(self.network) + index)

    def __str__(self) -> str:
        return f"{self.network}/{self.prefix}"

    def __repr__(self) -> str:
        return f"Ipv4Network('{self}')"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Ipv4Network):
            return self.network == other.network and self.prefix == other.prefix
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("net", int(self.network), self.prefix))
