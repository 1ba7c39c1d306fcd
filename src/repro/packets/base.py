"""Shared codec machinery: checksums, buffer readers, packet protocol.

All codecs in :mod:`repro.packets` follow one convention: an ``encode()``
method producing the exact wire bytes, and a ``decode(data)`` classmethod
that parses them back, raising :class:`repro.errors.CodecError` subclasses
on malformed input.  ``decode(encode())`` round-trips for every packet —
the property-based test suite enforces this.
"""

from __future__ import annotations

import struct
from functools import lru_cache
from typing import Callable, Protocol, TypeVar, runtime_checkable

from repro.errors import TruncatedPacketError
from repro.perf import PERF

__all__ = [
    "Wire",
    "internet_checksum",
    "pseudo_header_sum",
    "Reader",
    "memoized_encode",
    "new_value",
]


@runtime_checkable
class Wire(Protocol):
    """Anything that encodes itself to wire bytes."""

    def encode(self) -> bytes:  # pragma: no cover - protocol definition
        ...


@lru_cache(maxsize=512)
def _word_struct(count: int) -> struct.Struct:
    """Precompiled big-endian 16-bit word unpacker for ``count`` words."""
    return struct.Struct(f"!{count}H")


def internet_checksum(data: bytes, initial: int = 0) -> int:
    """RFC 1071 ones-complement checksum over ``data``.

    Odd-length buffers are treated as zero-padded on the right, per the
    RFC — without materializing a padded copy of the input: the even
    prefix is summed in place and the trailing byte is folded in as the
    high half of a final word.

    ``initial`` is the plain sum of 16-bit words that precede ``data``
    (a pseudo-header, or a header whose fields the caller already
    holds), so an encoder checksums its header and payload without
    packing the header twice or concatenating the two.
    """
    length = len(data)
    even = length & ~1
    total = initial + sum(_word_struct(even // 2).unpack_from(data))
    if length & 1:
        total += data[-1] << 8
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


def pseudo_header_sum(src, dst, proto: int, length: int) -> int:
    """Word sum of the IPv4 pseudo-header a UDP or TCP checksum covers.

    ``src`` and ``dst`` are :class:`~repro.net.addresses.Ipv4Address`;
    pass the result as :func:`internet_checksum`'s ``initial``.
    """
    src, dst = src._value, dst._value
    return (src >> 16) + (src & 0xFFFF) + (dst >> 16) + (dst & 0xFFFF) + proto + length


_T = TypeVar("_T")

#: A frozen packet value with nothing set.  Decoders fill its ``__dict__``
#: from wire fields the format already bounds, so ``__init__`` and
#: ``__post_init__`` are not re-run; every field must be filled.
new_value = object.__new__


def memoized_encode(build: Callable[[_T], bytes]) -> Callable[[_T], bytes]:
    """Decorator: cache a frozen packet's serialization on the instance.

    Packet objects are immutable, so their wire bytes are a pure function
    of the instance — a frame built once and transmitted N times (floods,
    retries, periodic announcements) only pays for serialization once.
    The cache rides in the instance ``__dict__`` under ``_wire``, so it is
    invisible to dataclass equality/repr and is not carried across
    ``dataclasses.replace``.
    """

    def encode(self: _T) -> bytes:
        wire = self.__dict__.get("_wire")
        if wire is None:
            wire = build(self)
            object.__setattr__(self, "_wire", wire)
            PERF.packet_encodes += 1
        else:
            PERF.encodes_avoided += 1
        return wire

    encode.__doc__ = build.__doc__
    encode.__name__ = build.__name__
    return encode


class Reader:
    """A bounds-checked cursor over a byte buffer.

    Raises :class:`TruncatedPacketError` instead of silently returning
    short slices, which is how decode bugs were historically masked.
    """

    __slots__ = ("_data", "_pos", "_context")

    def __init__(self, data: bytes, context: str = "packet") -> None:
        self._data = data
        self._pos = 0
        self._context = context

    @property
    def position(self) -> int:
        return self._pos

    @property
    def remaining(self) -> int:
        return len(self._data) - self._pos

    def take(self, count: int) -> bytes:
        """Consume exactly ``count`` bytes."""
        if count < 0:
            raise ValueError("count must be non-negative")
        if self.remaining < count:
            raise TruncatedPacketError(
                f"{self._context}: needed {count} bytes at offset {self._pos}, "
                f"only {self.remaining} remain"
            )
        chunk = self._data[self._pos : self._pos + count]
        self._pos += count
        return chunk

    def u8(self) -> int:
        return self.take(1)[0]

    def u16(self) -> int:
        return struct.unpack("!H", self.take(2))[0]

    def u32(self) -> int:
        return struct.unpack("!I", self.take(4))[0]

    def rest(self) -> bytes:
        """Consume and return everything left."""
        chunk = self._data[self._pos :]
        self._pos = len(self._data)
        return chunk

    def peek(self, count: int) -> bytes:
        """Look ahead without consuming; may return fewer bytes at the end."""
        return self._data[self._pos : self._pos + count]
