"""ICMP messages (RFC 792): echo request/reply and destination unreachable.

Echo is the workhorse of both benign traffic and the active-probe
detection scheme (which pings a claimed binding to see who answers).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.errors import ChecksumError, CodecError, TruncatedPacketError
from repro.packets.base import internet_checksum, memoized_encode, new_value

__all__ = ["IcmpType", "IcmpMessage"]

_HEADER = struct.Struct("!BBHI")


class IcmpType:
    """ICMP type codes used in the simulation."""

    ECHO_REPLY = 0
    DEST_UNREACHABLE = 3
    ECHO_REQUEST = 8
    TIME_EXCEEDED = 11

    @classmethod
    def name(cls, value: int) -> str:
        return {
            0: "echo-reply",
            3: "dest-unreachable",
            8: "echo-request",
            11: "time-exceeded",
        }.get(value, f"type{value}")


@dataclass(frozen=True)
class IcmpMessage:
    """A generic ICMP message.

    For echo messages ``rest_of_header`` packs identifier and sequence
    number; builders below handle that.
    """

    icmp_type: int
    code: int
    rest_of_header: int
    payload: bytes

    def __post_init__(self) -> None:
        if not 0 <= self.icmp_type <= 255 or not 0 <= self.code <= 255:
            raise CodecError("icmp: type/code out of range")
        if not 0 <= self.rest_of_header <= 0xFFFFFFFF:
            raise CodecError("icmp: rest-of-header out of range")

    @memoized_encode
    def encode(self) -> bytes:
        icmp_type, code, rest = self.icmp_type, self.code, self.rest_of_header
        payload = self.payload
        # The header's words, checksum zero, summed ahead of the payload.
        header = (icmp_type << 8 | code) + (rest >> 16) + (rest & 0xFFFF)
        checksum = internet_checksum(payload, header)
        return _HEADER.pack(icmp_type, code, checksum, rest) + payload

    @classmethod
    def decode(cls, data: bytes, verify_checksum: bool = True) -> "IcmpMessage":
        if len(data) < 8:
            raise TruncatedPacketError(
                f"icmp: needed 8 bytes at offset 0, only {len(data)} remain"
            )
        icmp_type, code, _checksum, rest = _HEADER.unpack_from(data)
        if verify_checksum and internet_checksum(data) != 0:
            raise ChecksumError("icmp: checksum mismatch")
        message = new_value(cls)
        message.__dict__.update(
            icmp_type=icmp_type, code=code, rest_of_header=rest, payload=data[8:]
        )
        return message

    # ------------------------------------------------------------------
    # Echo helpers
    # ------------------------------------------------------------------
    @classmethod
    def echo_request(
        cls, identifier: int, sequence: int, payload: bytes = b""
    ) -> "IcmpMessage":
        return cls(
            icmp_type=IcmpType.ECHO_REQUEST,
            code=0,
            rest_of_header=(identifier & 0xFFFF) << 16 | (sequence & 0xFFFF),
            payload=payload,
        )

    @classmethod
    def echo_reply(
        cls, identifier: int, sequence: int, payload: bytes = b""
    ) -> "IcmpMessage":
        return cls(
            icmp_type=IcmpType.ECHO_REPLY,
            code=0,
            rest_of_header=(identifier & 0xFFFF) << 16 | (sequence & 0xFFFF),
            payload=payload,
        )

    @property
    def identifier(self) -> int:
        return self.rest_of_header >> 16 & 0xFFFF

    @property
    def sequence(self) -> int:
        return self.rest_of_header & 0xFFFF

    @property
    def is_echo_request(self) -> bool:
        return self.icmp_type == IcmpType.ECHO_REQUEST

    @property
    def is_echo_reply(self) -> bool:
        return self.icmp_type == IcmpType.ECHO_REPLY

    def reply_to(self) -> "IcmpMessage":
        """Build the echo reply matching this echo request."""
        if not self.is_echo_request:
            raise CodecError("reply_to only applies to echo requests")
        return IcmpMessage.echo_reply(self.identifier, self.sequence, self.payload)

    def summary(self) -> str:
        base = f"icmp {IcmpType.name(self.icmp_type)}"
        if self.is_echo_request or self.is_echo_reply:
            base += f" id={self.identifier} seq={self.sequence}"
        return base
