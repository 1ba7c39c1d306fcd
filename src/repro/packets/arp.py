"""ARP (RFC 826) packets, including the authenticated extensions.

The 28-byte Ethernet/IPv4 ARP body is encoded exactly as on the wire.
S-ARP and TARP both extend classic ARP by appending authentication
material after the standard body (S-ARP appends a signed header; TARP
appends a ticket) so unmodified hosts still parse the leading body.  We
model that faithfully with a tagged trailing extension:

``| standard 28-byte ARP | magic(4) | length(2) | extension bytes |``

Minimum-frame zero padding cannot be confused with an extension because
the magic values are non-zero.

:meth:`ArpPacket.decode` memoizes its result per payload: a flood hands
the same wire bytes to every host, and packets are immutable, so each
distinct payload is parsed once.  The memo is bounded (FIFO eviction) and
holds only successful parses; malformed input raises on every call.
"""

from __future__ import annotations

import struct
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from repro.errors import CodecError, TruncatedPacketError
from repro.net.addresses import Ipv4Address, MacAddress
from repro.packets.base import memoized_encode, new_value

__all__ = ["ArpOp", "ArpExtension", "ArpPacket", "SARP_MAGIC", "TARP_MAGIC"]

SARP_MAGIC = b"SARP"
TARP_MAGIC = b"TARP"
_KNOWN_MAGICS = (SARP_MAGIC, TARP_MAGIC)

_HTYPE_ETHERNET = 1
_PTYPE_IPV4 = 0x0800

_BODY = struct.Struct("!HHBBH6s4s6s4s")
_EXT_LEN = struct.Struct("!H")
#: Where an extension's payload starts: after the body, magic and length.
_EXT_START = _BODY.size + 6
_ZERO_IP = bytes(4)

#: Decoded payloads kept at most; the oldest is dropped first.
DECODE_MEMO_CAP = 1024

#: Payload bytes -> the packet they decode to (successful parses only).
_DECODED: "OrderedDict[bytes, ArpPacket]" = OrderedDict()


class ArpOp:
    """ARP operation codes."""

    REQUEST = 1
    REPLY = 2

    @classmethod
    def name(cls, value: int) -> str:
        return {1: "request", 2: "reply"}.get(value, f"op{value}")


@dataclass(frozen=True)
class ArpExtension:
    """Authentication material appended after the standard ARP body."""

    magic: bytes
    payload: bytes

    def __post_init__(self) -> None:
        if self.magic not in _KNOWN_MAGICS:
            raise CodecError(f"unknown ARP extension magic {self.magic!r}")
        if len(self.payload) > 0xFFFF:
            raise CodecError("ARP extension payload too large")

    def encode(self) -> bytes:
        return self.magic + _EXT_LEN.pack(len(self.payload)) + self.payload


@dataclass(frozen=True)
class ArpPacket:
    """An Ethernet/IPv4 ARP request or reply.

    ``sha``/``spa`` are the sender hardware/protocol addresses, ``tha``/
    ``tpa`` the target ones — the same abbreviations RFC 826 uses.
    """

    op: int
    sha: MacAddress
    spa: Ipv4Address
    tha: MacAddress
    tpa: Ipv4Address
    extension: Optional[ArpExtension] = None

    def __post_init__(self) -> None:
        if self.op not in (ArpOp.REQUEST, ArpOp.REPLY):
            raise CodecError(f"unsupported ARP op {self.op}")

    # ------------------------------------------------------------------
    # Wire format
    # ------------------------------------------------------------------
    @memoized_encode
    def encode(self) -> bytes:
        body = _BODY.pack(
            _HTYPE_ETHERNET,
            _PTYPE_IPV4,
            6,
            4,
            self.op,
            self.sha.packed,
            self.spa.packed,
            self.tha.packed,
            self.tpa.packed,
        )
        if self.extension is not None:
            body += self.extension.encode()
        return body

    @classmethod
    def decode(cls, data: bytes) -> "ArpPacket":
        if type(data) is not bytes:
            data = bytes(data)  # hashable, and immune to later mutation
        packet = _DECODED.get(data)
        if packet is not None:
            return packet
        size = len(data)
        if size < _BODY.size:
            raise TruncatedPacketError(
                f"arp: needed {_BODY.size} bytes at offset 0, only {size} remain"
            )
        htype, ptype, hlen, plen, op, sha, spa, tha, tpa = _BODY.unpack_from(data)
        if htype != _HTYPE_ETHERNET or ptype != _PTYPE_IPV4:
            raise CodecError(
                f"unsupported ARP htype/ptype {htype}/0x{ptype:04x}"
            )
        if hlen != 6 or plen != 4:
            raise CodecError(f"unsupported ARP address lengths {hlen}/{plen}")
        if op not in (ArpOp.REQUEST, ArpOp.REPLY):
            raise CodecError(f"unsupported ARP op {op}")
        extension = None
        if size >= _EXT_START:
            magic = data[28:32]
            if magic in _KNOWN_MAGICS:  # else minimum-frame padding
                (length,) = _EXT_LEN.unpack_from(data, 32)
                if size - _EXT_START < length:
                    raise TruncatedPacketError(
                        f"arp: needed {length} bytes at offset {_EXT_START}, "
                        f"only {size - _EXT_START} remain"
                    )
                extension = new_value(ArpExtension)
                extension.__dict__.update(
                    magic=magic, payload=data[_EXT_START : _EXT_START + length]
                )
        packet = new_value(cls)
        packet.__dict__.update(
            op=op,
            sha=MacAddress.from_wire(sha),
            spa=Ipv4Address.from_wire(spa),
            tha=MacAddress.from_wire(tha),
            tpa=Ipv4Address.from_wire(tpa),
            extension=extension,
            # Settled here from the wire bytes; every receiver of this
            # payload shares the answer through the memo.
            is_gratuitous=spa == tpa and spa != _ZERO_IP,
        )
        if len(_DECODED) >= DECODE_MEMO_CAP:
            _DECODED.popitem(last=False)
        _DECODED[data] = packet
        return packet

    # ------------------------------------------------------------------
    # Semantics
    # ------------------------------------------------------------------
    @property
    def is_request(self) -> bool:
        return self.op == ArpOp.REQUEST

    @property
    def is_reply(self) -> bool:
        return self.op == ArpOp.REPLY

    @cached_property
    def is_gratuitous(self) -> bool:
        """Gratuitous ARP: the sender announces its own binding.

        Covers both gratuitous requests and gratuitous replies (spa == tpa).
        Computed once per packet object, like its wire bytes; the cache
        rides in the instance ``__dict__``, outside equality and repr.
        """
        return self.spa._value == self.tpa._value and self.spa._value != 0

    @property
    def is_probe(self) -> bool:
        """An RFC 5227 address probe (spa == 0.0.0.0 request)."""
        return self.is_request and self.spa.is_unspecified

    def binding(self) -> tuple[Ipv4Address, MacAddress]:
        """The ``(IP, MAC)`` claim this packet asserts about its sender."""
        return (self.spa, self.sha)

    def summary(self) -> str:
        kind = ArpOp.name(self.op)
        if self.is_gratuitous:
            kind = f"gratuitous-{kind}"
        base = f"arp {kind} {self.spa} is-at {self.sha} (asking {self.tpa})"
        if self.extension is not None:
            base += f" +{self.extension.magic.decode()}"
        return base

    # ------------------------------------------------------------------
    # Builders
    # ------------------------------------------------------------------
    @classmethod
    def request(
        cls,
        sha: MacAddress,
        spa: Ipv4Address,
        tpa: Ipv4Address,
        extension: Optional[ArpExtension] = None,
    ) -> "ArpPacket":
        """A who-has request for ``tpa`` (tha is zero, per convention)."""
        from repro.net.addresses import ZERO_MAC

        return cls(
            op=ArpOp.REQUEST, sha=sha, spa=spa, tha=ZERO_MAC, tpa=tpa,
            extension=extension,
        )

    @classmethod
    def reply(
        cls,
        sha: MacAddress,
        spa: Ipv4Address,
        tha: MacAddress,
        tpa: Ipv4Address,
        extension: Optional[ArpExtension] = None,
    ) -> "ArpPacket":
        """An is-at reply asserting that ``spa`` is at ``sha``."""
        return cls(
            op=ArpOp.REPLY, sha=sha, spa=spa, tha=tha, tpa=tpa,
            extension=extension,
        )

    @classmethod
    def gratuitous(
        cls,
        sha: MacAddress,
        spa: Ipv4Address,
        as_reply: bool = True,
        extension: Optional[ArpExtension] = None,
    ) -> "ArpPacket":
        """A gratuitous announcement of ``spa`` at ``sha``."""
        from repro.net.addresses import BROADCAST_MAC, ZERO_MAC

        if as_reply:
            return cls(
                op=ArpOp.REPLY, sha=sha, spa=spa, tha=BROADCAST_MAC, tpa=spa,
                extension=extension,
            )
        return cls(
            op=ArpOp.REQUEST, sha=sha, spa=spa, tha=ZERO_MAC, tpa=spa,
            extension=extension,
        )
