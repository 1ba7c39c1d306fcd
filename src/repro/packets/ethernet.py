"""Ethernet II framing.

Frames are what actually travel over simulated links: every higher-layer
packet is encoded into the payload of an :class:`EthernetFrame`, and every
device (switch, NIC, detector) works from the decoded frame exactly as a
real implementation would work from wire bytes.

The 8-byte preamble and the 4-byte FCS are not carried — like libpcap, the
capture starts at the destination MAC — but minimum-frame padding *is*
applied (payloads are padded to 46 bytes), because real ARP packets arrive
padded and detectors must cope.

Two parse paths exist:

* :meth:`EthernetFrame.decode` — eager, materializes the payload; used by
  offline analysis where the whole frame will be inspected anyway.
* :meth:`EthernetFrame.lazy` — returns a :class:`FrameView` that parses
  only the 14-byte header and defers the payload copy until a handler
  actually reads it.  A host dropping a foreign unicast (or a switch
  forwarding by MAC alone) never touches the body.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Union

from repro.errors import CodecError, TruncatedPacketError
from repro.net.addresses import MacAddress
from repro.packets.base import memoized_encode
from repro.perf import PERF

__all__ = [
    "EtherType",
    "EthernetFrame",
    "FrameView",
    "MIN_PAYLOAD",
    "MAX_PAYLOAD",
    "frame_bytes",
]

MIN_PAYLOAD = 46
MAX_PAYLOAD = 1500

_HEADER = struct.Struct("!6s6sH")
_HEADER_LEN = _HEADER.size  # 14


def _wire(dst: bytes, src: bytes, ethertype: int, payload: bytes) -> bytes:
    """Header plus payload, padded to the 60-byte minimum frame (sans FCS)."""
    short = MIN_PAYLOAD - len(payload)
    if short > 0:
        payload += bytes(short)
    return _HEADER.pack(dst, src, ethertype) + payload


def frame_bytes(
    dst: MacAddress, src: MacAddress, ethertype: int, payload: bytes
) -> bytes:
    """The wire bytes of ``EthernetFrame(dst, src, ethertype, payload)``.

    For a sender that transmits a frame as soon as it is built: the
    14-byte header is written from the addresses' cached wire bytes and
    no frame object is made.  It counts one packet encode and enforces
    the MTU, as building and encoding the frame would; ``ethertype`` is
    one of the :class:`EtherType` constants.
    """
    if len(payload) > MAX_PAYLOAD:
        raise CodecError(f"payload of {len(payload)} bytes exceeds Ethernet MTU")
    PERF.packet_encodes += 1
    return _wire(dst.packed, src.packed, ethertype, payload)


class EtherType:
    """EtherType registry constants used by the simulation."""

    IPV4 = 0x0800
    ARP = 0x0806
    VLAN = 0x8100
    #: Experimental ethertype used by the TARP ticket-distribution channel.
    EXPERIMENTAL = 0x88B5

    _NAMES = {0x0800: "IPv4", 0x0806: "ARP", 0x8100: "VLAN", 0x88B5: "EXP"}

    @classmethod
    def name(cls, value: int) -> str:
        return cls._NAMES.get(value, f"0x{value:04x}")


@dataclass(frozen=True)
class EthernetFrame:
    """An Ethernet II frame (dst, src, ethertype, payload)."""

    dst: MacAddress
    src: MacAddress
    ethertype: int
    payload: bytes

    def __post_init__(self) -> None:
        if not 0x0600 <= self.ethertype <= 0xFFFF:
            raise CodecError(
                f"ethertype 0x{self.ethertype:04x} is not a valid Ethernet II type"
            )
        if len(self.payload) > MAX_PAYLOAD:
            raise CodecError(
                f"payload of {len(self.payload)} bytes exceeds Ethernet MTU"
            )

    @memoized_encode
    def encode(self) -> bytes:
        """Wire bytes, padded to the 60-byte minimum frame size (sans FCS)."""
        return _wire(self.dst.packed, self.src.packed, self.ethertype, self.payload)

    @classmethod
    def decode(cls, data: bytes) -> "EthernetFrame":
        if len(data) < _HEADER_LEN:
            raise TruncatedPacketError(
                f"ethernet: needed {_HEADER_LEN} bytes at offset 0, "
                f"only {len(data)} remain"
            )
        dst, src, ethertype = _HEADER.unpack_from(data)
        if ethertype < 0x0600:
            raise CodecError(
                "802.3 length field encountered; this simulation speaks Ethernet II"
            )
        PERF.eager_decodes += 1
        return cls(
            dst=MacAddress.from_wire(dst),
            src=MacAddress.from_wire(src),
            ethertype=ethertype,
            payload=data[_HEADER_LEN:],
        )

    @classmethod
    def lazy(cls, data: bytes) -> "FrameView":
        """A zero-copy lazy view over ``data`` (see :class:`FrameView`)."""
        return FrameView(data)

    @property
    def wire_length(self) -> int:
        """Frame size on the wire (header + padded payload)."""
        return _HEADER_LEN + max(len(self.payload), MIN_PAYLOAD)

    @property
    def is_broadcast(self) -> bool:
        return self.dst.is_broadcast

    def summary(self) -> str:
        """One-line human-readable description (used in traces/logs)."""
        return (
            f"{self.src} -> {self.dst} {EtherType.name(self.ethertype)} "
            f"len={self.wire_length}"
        )


class FrameView:
    """A lazily decoded Ethernet frame over a received wire buffer.

    The 14-byte header (dst, src, ethertype) is parsed eagerly — that is
    all a forwarding or filtering decision needs — while the payload is
    materialized only on first access.  API-compatible with
    :class:`EthernetFrame` for every read path (attributes, ``summary``,
    ``encode``, equality), so handlers written against decoded frames work
    on views unchanged.
    """

    __slots__ = ("_data", "dst", "src", "ethertype", "_payload")

    def __init__(self, data: bytes) -> None:
        if len(data) < _HEADER_LEN:
            raise TruncatedPacketError(
                f"ethernet: needed {_HEADER_LEN} bytes at offset 0, "
                f"only {len(data)} remain"
            )
        dst, src, ethertype = _HEADER.unpack_from(data)
        if ethertype < 0x0600:
            raise CodecError(
                "802.3 length field encountered; this simulation speaks Ethernet II"
            )
        self._data = data
        self.dst = MacAddress.from_wire(dst)
        self.src = MacAddress.from_wire(src)
        self.ethertype = ethertype
        self._payload: Union[bytes, None] = None
        PERF.lazy_frames += 1

    @property
    def payload(self) -> bytes:
        """The frame body (materialized and cached on first access)."""
        payload = self._payload
        if payload is None:
            payload = self._payload = self._data[_HEADER_LEN:]
            PERF.payload_decodes += 1
        return payload

    @property
    def payload_materialized(self) -> bool:
        """True once :attr:`payload` has been read (introspection/tests)."""
        return self._payload is not None

    def encode(self) -> bytes:
        """The original wire bytes (padded to minimum frame size if short)."""
        data = self._data
        short = _HEADER_LEN + MIN_PAYLOAD - len(data)
        if short > 0:
            return data + b"\x00" * short
        PERF.encodes_avoided += 1
        return data

    def materialize(self) -> EthernetFrame:
        """An eager :class:`EthernetFrame` with the same contents."""
        return EthernetFrame(
            dst=self.dst, src=self.src, ethertype=self.ethertype,
            payload=self.payload,
        )

    @property
    def wire_length(self) -> int:
        return _HEADER_LEN + max(len(self._data) - _HEADER_LEN, MIN_PAYLOAD)

    @property
    def is_broadcast(self) -> bool:
        return self.dst.is_broadcast

    def summary(self) -> str:
        return (
            f"{self.src} -> {self.dst} {EtherType.name(self.ethertype)} "
            f"len={self.wire_length}"
        )

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (FrameView, EthernetFrame)):
            return (
                self.dst == other.dst
                and self.src == other.src
                and self.ethertype == other.ethertype
                and self.payload == other.payload
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.dst, self.src, self.ethertype, self.payload))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FrameView(dst={self.dst}, src={self.src}, "
            f"ethertype=0x{self.ethertype:04x}, len={len(self._data)})"
        )
