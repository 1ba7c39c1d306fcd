"""IPv4 headers (RFC 791) with real header checksums.

Options and fragmentation are encoded but not reassembled — nothing in the
evaluation fragments — yet the fields are carried so traces look like real
traffic and the checksum actually protects the header.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from repro.errors import ChecksumError, CodecError, TruncatedPacketError
from repro.net.addresses import Ipv4Address
from repro.packets.base import internet_checksum, memoized_encode, new_value

__all__ = ["IpProto", "Ipv4Packet"]

_HEADER = struct.Struct("!BBHHHBBHII")
_WORDS = struct.Struct("!10H")


class IpProto:
    """IP protocol numbers used in the simulation."""

    ICMP = 1
    TCP = 6
    UDP = 17

    @classmethod
    def name(cls, value: int) -> str:
        return {1: "icmp", 6: "tcp", 17: "udp"}.get(value, f"proto{value}")


@dataclass(frozen=True)
class Ipv4Packet:
    """An IPv4 datagram (20-byte header, no options)."""

    src: Ipv4Address
    dst: Ipv4Address
    proto: int
    payload: bytes
    ttl: int = 64
    identification: int = 0
    dscp: int = 0
    dont_fragment: bool = True

    def __post_init__(self) -> None:
        if not 0 <= self.ttl <= 255:
            raise CodecError(f"TTL out of range: {self.ttl}")
        if not 0 <= self.identification <= 0xFFFF:
            raise CodecError(f"identification out of range: {self.identification}")
        if not 0 <= self.proto <= 255:
            raise CodecError(f"protocol out of range: {self.proto}")
        if not 0 <= self.dscp <= 63:
            raise CodecError(f"DSCP out of range: {self.dscp}")
        if len(self.payload) > 0xFFFF - 20:
            raise CodecError(
                f"total length {20 + len(self.payload)} exceeds 65535"
            )

    @property
    def header_length(self) -> int:
        return 20

    @property
    def total_length(self) -> int:
        return self.header_length + len(self.payload)

    @memoized_encode
    def encode(self) -> bytes:
        src, dst = self.src._value, self.dst._value
        tos = self.dscp << 2
        total_length = 20 + len(self.payload)
        flags_frag = 0x4000 if self.dont_fragment else 0
        # The header's words summed from the fields themselves, so the
        # header is packed once, with its checksum in place.
        words = (
            (0x45 << 8 | tos) + total_length + self.identification + flags_frag
            + (self.ttl << 8 | self.proto)
            + (src >> 16) + (src & 0xFFFF) + (dst >> 16) + (dst & 0xFFFF)
        )
        words = (words & 0xFFFF) + (words >> 16)
        words = (words & 0xFFFF) + (words >> 16)
        return _HEADER.pack(
            0x45,  # version 4, IHL 5 words
            tos,
            total_length,
            self.identification,
            flags_frag,
            self.ttl,
            self.proto,
            ~words & 0xFFFF,
            src,
            dst,
        ) + self.payload

    @classmethod
    def decode(cls, data: bytes, verify_checksum: bool = True) -> "Ipv4Packet":
        size = len(data)
        if size < 20:
            raise CodecError("ipv4: header shorter than 20 bytes")
        # One unpack of the fixed header as ten words: the fields are
        # read from them, and an option-less header is checksummed by
        # summing them.
        words = _WORDS.unpack_from(data)
        first, total_length, identification, flags_frag, ttl_proto = words[:5]
        version = first >> 12
        ihl = first >> 8 & 0x0F
        if version != 4:
            raise CodecError(f"ipv4: version field is {version}")
        if ihl < 5:
            raise CodecError(f"ipv4: IHL {ihl} below minimum")
        header_length = ihl * 4
        if ihl > 5:
            if size < header_length:
                raise TruncatedPacketError(
                    f"ipv4: needed {header_length - 20} bytes at offset 20, "
                    f"only {size - 20} remain"
                )
            if verify_checksum and internet_checksum(data[:header_length]) != 0:
                raise ChecksumError("ipv4: header checksum mismatch")
        elif verify_checksum:
            total = sum(words)
            total = (total & 0xFFFF) + (total >> 16)
            if (total & 0xFFFF) + (total >> 16) != 0xFFFF:
                raise ChecksumError("ipv4: header checksum mismatch")
        if total_length < header_length:
            raise CodecError("ipv4: total length smaller than header")
        packet = new_value(cls)
        packet.__dict__.update(
            src=Ipv4Address.from_wire(data[12:16]),
            dst=Ipv4Address.from_wire(data[16:20]),
            proto=ttl_proto & 0xFF,
            payload=data[header_length:total_length],
            ttl=ttl_proto >> 8,
            identification=identification,
            dscp=(first & 0xFF) >> 2,
            dont_fragment=bool(flags_frag & 0x4000),
        )
        return packet

    def decremented(self) -> "Ipv4Packet":
        """A copy with TTL reduced by one (what a router does)."""
        if self.ttl == 0:
            raise CodecError("cannot decrement TTL below zero")
        return Ipv4Packet(
            src=self.src,
            dst=self.dst,
            proto=self.proto,
            payload=self.payload,
            ttl=self.ttl - 1,
            identification=self.identification,
            dscp=self.dscp,
            dont_fragment=self.dont_fragment,
        )

    def summary(self) -> str:
        return (
            f"ip {self.src} -> {self.dst} {IpProto.name(self.proto)} "
            f"ttl={self.ttl} len={self.total_length}"
        )
