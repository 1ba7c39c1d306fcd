"""TCP segments (header-accurate, connection logic simplified).

The evaluation needs TCP for two things: realistic victim traffic for the
MITM to intercept, and the SYN-probe used by some active detectors (a TCP
SYN to a claimed binding elicits SYN-ACK or RST from the true IP owner).
Segments carry real headers with checksums; full congestion/retransmission
machinery is intentionally out of scope.
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

__all__ = ["TcpFlags", "TcpSegment"]

_HEADER = struct.Struct("!HHIIBBHHH")


class TcpFlags:
    """TCP flag bits."""

    FIN = 0x01
    SYN = 0x02
    RST = 0x04
    PSH = 0x08
    ACK = 0x10
    URG = 0x20

    @classmethod
    def describe(cls, flags: int) -> str:
        names = []
        for bit, name in (
            (cls.SYN, "SYN"),
            (cls.ACK, "ACK"),
            (cls.FIN, "FIN"),
            (cls.RST, "RST"),
            (cls.PSH, "PSH"),
            (cls.URG, "URG"),
        ):
            if flags & bit:
                names.append(name)
        return "|".join(names) if names else "none"


@dataclass(frozen=True)
class TcpSegment:
    """A TCP segment with a 20-byte header (no options)."""

    src_port: int
    dst_port: int
    seq: int
    ack: int
    flags: int
    payload: bytes = b""
    window: int = 0xFFFF

    def __post_init__(self) -> None:
        for label, port in (("src", self.src_port), ("dst", self.dst_port)):
            if not 0 <= port <= 0xFFFF:
                raise CodecError(f"tcp: {label} port out of range: {port}")
        if not 0 <= self.seq <= 0xFFFFFFFF or not 0 <= self.ack <= 0xFFFFFFFF:
            raise CodecError("tcp: sequence/ack out of range")
        if not 0 <= self.flags <= 0xFF:
            raise CodecError("tcp: flags out of range")
        if not 0 <= self.window <= 0xFFFF:
            raise CodecError("tcp: window out of range")

    @property
    def length(self) -> int:
        return 20 + len(self.payload)

    def _header(self, checksum: int) -> bytes:
        return _HEADER.pack(
            self.src_port,
            self.dst_port,
            self.seq,
            self.ack,
            5 << 4,  # data offset 5 words
            self.flags,
            self.window,
            checksum,
            0,  # urgent pointer
        )

    def encode(
        self,
        src_ip: Optional[Ipv4Address] = None,
        dst_ip: Optional[Ipv4Address] = None,
    ) -> bytes:
        if src_ip is None or dst_ip is None:
            # The zero-checksum form is a pure function of the (frozen)
            # segment, so it memoizes like the argument-less codecs do;
            # the pseudo-header form depends on the IPs and is rebuilt.
            wire = self.__dict__.get("_wire")
            if wire is None:
                wire = self._header(0) + self.payload
                object.__setattr__(self, "_wire", wire)
                PERF.packet_encodes += 1
            else:
                PERF.encodes_avoided += 1
            return wire
        seq, ack = self.seq, self.ack
        # Pseudo-header and header words (checksum zero) ahead of the payload.
        checksum = internet_checksum(
            self.payload,
            pseudo_header_sum(src_ip, dst_ip, IpProto.TCP, self.length)
            + self.src_port + self.dst_port
            + (seq >> 16) + (seq & 0xFFFF) + (ack >> 16) + (ack & 0xFFFF)
            + (5 << 12 | self.flags) + self.window,
        )
        PERF.packet_encodes += 1
        return self._header(checksum) + self.payload

    @classmethod
    def decode(
        cls,
        data: bytes,
        src_ip: Optional[Ipv4Address] = None,
        dst_ip: Optional[Ipv4Address] = None,
    ) -> "TcpSegment":
        size = len(data)
        if size < 20:
            raise TruncatedPacketError(
                f"tcp: needed 20 bytes at offset 0, only {size} remain"
            )
        (
            src_port, dst_port, seq, ack, offset_byte, flags, window, checksum, _urgent,
        ) = _HEADER.unpack_from(data)
        offset = offset_byte >> 4
        if offset < 5:
            raise CodecError(f"tcp: data offset {offset} below minimum")
        if size < offset * 4:
            raise TruncatedPacketError(
                f"tcp: needed {(offset - 5) * 4} bytes at offset 20, "
                f"only {size - 20} remain"
            )
        if checksum != 0 and src_ip is not None and dst_ip is not None:
            pseudo = pseudo_header_sum(src_ip, dst_ip, IpProto.TCP, size)
            if internet_checksum(data, pseudo) != 0:
                raise ChecksumError("tcp: checksum mismatch")
        segment = new_value(cls)
        segment.__dict__.update(
            src_port=src_port,
            dst_port=dst_port,
            seq=seq,
            ack=ack,
            flags=flags,
            payload=data[offset * 4 :],
            window=window,
        )
        return segment

    # ------------------------------------------------------------------
    # Builders
    # ------------------------------------------------------------------
    @classmethod
    def syn(cls, src_port: int, dst_port: int, seq: int) -> "TcpSegment":
        return cls(src_port, dst_port, seq, 0, TcpFlags.SYN)

    @classmethod
    def syn_ack(cls, src_port: int, dst_port: int, seq: int, ack: int) -> "TcpSegment":
        return cls(src_port, dst_port, seq, ack, TcpFlags.SYN | TcpFlags.ACK)

    @classmethod
    def rst(cls, src_port: int, dst_port: int, seq: int) -> "TcpSegment":
        return cls(src_port, dst_port, seq, 0, TcpFlags.RST)

    def summary(self) -> str:
        return (
            f"tcp {self.src_port} -> {self.dst_port} "
            f"[{TcpFlags.describe(self.flags)}] seq={self.seq} len={len(self.payload)}"
        )
