"""UDP datagrams (RFC 768).

The checksum is computed over the usual IPv4 pseudo-header when the source
and destination IPs are supplied; encoding without them emits a zero
checksum (legal for IPv4 UDP), which is also what the DHCP path uses.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Optional

from repro.errors import ChecksumError, CodecError, TruncatedPacketError
from repro.net.addresses import Ipv4Address
from repro.packets.base import internet_checksum, new_value, pseudo_header_sum
from repro.packets.ipv4 import IpProto
from repro.perf import PERF

__all__ = ["UdpDatagram"]

_HEADER = struct.Struct("!HHHH")


@dataclass(frozen=True)
class UdpDatagram:
    """A UDP datagram: source port, destination port, payload."""

    src_port: int
    dst_port: int
    payload: bytes

    def __post_init__(self) -> None:
        for label, port in (("src", self.src_port), ("dst", self.dst_port)):
            if not 0 <= port <= 0xFFFF:
                raise CodecError(f"udp: {label} port out of range: {port}")
        if len(self.payload) > 0xFFFF - 8:
            raise CodecError(f"udp: length {8 + len(self.payload)} exceeds 65535")

    @property
    def length(self) -> int:
        return 8 + len(self.payload)

    def encode(
        self,
        src_ip: Optional[Ipv4Address] = None,
        dst_ip: Optional[Ipv4Address] = None,
    ) -> bytes:
        if src_ip is None or dst_ip is None:
            # Checksum-less form is a pure function of the frozen datagram.
            wire = self.__dict__.get("_wire")
            if wire is None:
                header = _HEADER.pack(self.src_port, self.dst_port, self.length, 0)
                wire = header + self.payload
                object.__setattr__(self, "_wire", wire)
                PERF.packet_encodes += 1
            else:
                PERF.encodes_avoided += 1
            return wire
        length = self.length
        # Pseudo-header and header words (checksum zero) ahead of the payload.
        checksum = internet_checksum(
            self.payload,
            pseudo_header_sum(src_ip, dst_ip, IpProto.UDP, length)
            + self.src_port + self.dst_port + length,
        )
        if checksum == 0:  # RFC 768: transmitted zero means "no checksum"
            checksum = 0xFFFF
        PERF.packet_encodes += 1
        return _HEADER.pack(self.src_port, self.dst_port, length, checksum) + self.payload

    @classmethod
    def decode(
        cls,
        data: bytes,
        src_ip: Optional[Ipv4Address] = None,
        dst_ip: Optional[Ipv4Address] = None,
    ) -> "UdpDatagram":
        if len(data) < 8:
            raise TruncatedPacketError(
                f"udp: needed 8 bytes at offset 0, only {len(data)} remain"
            )
        src_port, dst_port, length, checksum = _HEADER.unpack_from(data)
        if length < 8:
            raise CodecError(f"udp: length field {length} below header size")
        if checksum != 0 and src_ip is not None and dst_ip is not None:
            pseudo = pseudo_header_sum(src_ip, dst_ip, IpProto.UDP, length)
            if internet_checksum(data[:length], pseudo) != 0:
                raise ChecksumError("udp: checksum mismatch")
        datagram = new_value(cls)
        datagram.__dict__.update(
            src_port=src_port, dst_port=dst_port, payload=data[8:length]
        )
        return datagram

    def summary(self) -> str:
        return f"udp {self.src_port} -> {self.dst_port} len={self.length}"
