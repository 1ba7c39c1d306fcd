"""Malformed-input fuzzing of the wire decoders and encoders (hypothesis).

Every decoder on the host packet path -- IPv4, ICMP, UDP, TCP, DHCP and
the lazy Ethernet view -- is fed three kinds of input:

* arbitrary bytes;
* every truncation of a valid encoding;
* every single bit flip of a valid encoding.

Only :class:`CodecError` subclasses may escape.  Where the wire format
carries a checksum over a region, a flipped bit in that region must be
rejected: anywhere in an ICMP message, and anywhere in an IPv4 header.
The one IPv4 flip a checksum cannot catch is a longer IHL whose extra
header bytes happen to sum to the difference; such a buffer is a valid
header with options by RFC 791's rules, and the property checks exactly
that.

The encoders get the mirror property: every value a constructor accepts,
with its integer fields drawn far outside their wire widths and payloads
around the 64 KiB length limit, either encodes or raises a
:class:`CodecError`.

Tier-1 runs these at hypothesis' default size; the CI ``codec-fuzz`` job
runs them under the ``codec-fuzz`` profile (``tests/conftest.py``),
twenty times the examples.
"""

from __future__ import annotations

import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import CodecError
from repro.net.addresses import Ipv4Address, MacAddress
from repro.packets.base import internet_checksum
from repro.packets.dhcp import DhcpMessage
from repro.packets.ethernet import EthernetFrame, FrameView
from repro.packets.icmp import IcmpMessage
from repro.packets.ipv4 import Ipv4Packet
from repro.packets.tcp import TcpSegment
from repro.packets.udp import UdpDatagram

macs = st.integers(min_value=0, max_value=(1 << 48) - 1).map(MacAddress)
ips = st.integers(min_value=0, max_value=(1 << 32) - 1).map(Ipv4Address)
u8 = st.integers(min_value=0, max_value=0xFF)
u16 = st.integers(min_value=0, max_value=0xFFFF)
u32 = st.integers(min_value=0, max_value=0xFFFFFFFF)
payloads = st.binary(max_size=64)

#: The pseudo-header addresses a checksummed UDP/TCP decode verifies with.
SRC, DST = Ipv4Address("10.0.0.1"), Ipv4Address("10.0.0.2")


def _read_view(data: bytes) -> None:
    """Build a lazy view and read everything a receive handler reads."""
    view = FrameView(data)
    view.payload, view.summary(), view.encode(), view.materialize()


#: name -> decode(bytes); each returns a value or raises CodecError.
DECODERS = {
    "ipv4": Ipv4Packet.decode,
    "icmp": IcmpMessage.decode,
    "udp": UdpDatagram.decode,
    "udp-checksummed": lambda data: UdpDatagram.decode(data, SRC, DST),
    "tcp": TcpSegment.decode,
    "tcp-checksummed": lambda data: TcpSegment.decode(data, SRC, DST),
    "dhcp": DhcpMessage.decode,
    "frame-view": _read_view,
}

ipv4_packets = st.builds(
    Ipv4Packet,
    src=ips,
    dst=ips,
    proto=u8,
    payload=payloads,
    ttl=u8,
    identification=u16,
    dscp=st.integers(min_value=0, max_value=63),
    dont_fragment=st.booleans(),
)
icmp_messages = st.builds(
    IcmpMessage, icmp_type=u8, code=u8, rest_of_header=u32, payload=payloads
)
udp_datagrams = st.builds(UdpDatagram, src_port=u16, dst_port=u16, payload=payloads)
tcp_segments = st.builds(
    TcpSegment,
    src_port=u16,
    dst_port=u16,
    seq=u32,
    ack=u32,
    flags=u8,
    payload=payloads,
    window=u16,
)
dhcp_messages = st.one_of(
    st.builds(DhcpMessage.discover, macs, u32),
    st.builds(DhcpMessage.request, macs, u32, ips, ips),
    st.builds(DhcpMessage.ack, macs, u32, ips, ips, u32, ips, ips),
    st.builds(DhcpMessage.release, macs, u32, ips, ips),
)
frames = st.builds(
    EthernetFrame,
    dst=macs,
    src=macs,
    ethertype=st.integers(min_value=0x0600, max_value=0xFFFF),
    payload=payloads,
)

#: name -> strategy of valid wire encodings for that decoder.
ENCODINGS = {
    "ipv4": ipv4_packets.map(lambda p: p.encode()),
    "icmp": icmp_messages.map(lambda m: m.encode()),
    "udp": udp_datagrams.map(lambda d: d.encode()),
    "udp-checksummed": udp_datagrams.map(lambda d: d.encode(SRC, DST)),
    "tcp": tcp_segments.map(lambda s: s.encode()),
    "tcp-checksummed": tcp_segments.map(lambda s: s.encode(SRC, DST)),
    "dhcp": dhcp_messages.map(lambda m: m.encode()),
    "frame-view": frames.map(lambda f: f.encode()),
}


def _decodes(decode, data: bytes) -> bool:
    """True when ``data`` decodes; False when it raises CodecError.

    Any other exception escapes and fails the property.
    """
    try:
        decode(data)
    except CodecError:
        return False
    return True


def _flip(data: bytes, bit: int) -> bytes:
    flipped = bytearray(data)
    flipped[bit // 8] ^= 0x80 >> (bit % 8)
    return bytes(flipped)


@pytest.mark.parametrize("name", sorted(DECODERS))
@given(data=st.binary(max_size=300))
def test_arbitrary_bytes_raise_only_codec_errors(name, data):
    _decodes(DECODERS[name], data)


@pytest.mark.parametrize("name", sorted(DECODERS))
@given(data=st.data())
def test_every_truncation_raises_only_codec_errors(name, data):
    wire = data.draw(ENCODINGS[name])
    decode = DECODERS[name]
    assert _decodes(decode, wire)
    for cut in range(len(wire)):
        _decodes(decode, wire[:cut])


@pytest.mark.parametrize("name", sorted(DECODERS))
@given(data=st.data())
def test_single_bit_flips_raise_only_codec_errors(name, data):
    wire = data.draw(ENCODINGS[name])
    decode = DECODERS[name]
    for bit in range(len(wire) * 8):
        _decodes(decode, _flip(wire, bit))


def _valid_header_with_options(data: bytes) -> bool:
    """RFC 791's rules for a header with options: version 4, IHL above 5,
    the buffer and total length cover the header, and it checks out."""
    version_ihl, total_length = struct.unpack_from("!BxH", data)
    length = (version_ihl & 0x0F) * 4
    return (
        version_ihl >> 4 == 4
        and length > 20
        and len(data) >= length
        and total_length >= length
        and internet_checksum(data[:length]) == 0
    )


@given(ipv4_packets)
def test_ipv4_header_bit_flips_are_rejected(packet):
    wire = packet.encode()
    for bit in range(20 * 8):
        flipped = _flip(wire, bit)
        if _decodes(Ipv4Packet.decode, flipped):
            assert _valid_header_with_options(flipped), bit


@given(icmp_messages)
def test_icmp_bit_flips_are_rejected(message):
    wire = message.encode()
    for bit in range(len(wire) * 8):
        assert not _decodes(IcmpMessage.decode, _flip(wire, bit)), bit


@given(ipv4_packets)
def test_ipv4_truncated_header_is_rejected(packet):
    wire = packet.encode()
    for cut in range(20):
        assert not _decodes(Ipv4Packet.decode, wire[:cut])


def ints_in(bits: int):
    """An integer in a ``bits``-wide field, or far outside it either side."""
    return st.one_of(
        st.integers(min_value=0, max_value=(1 << bits) - 1),
        st.integers(min_value=-(1 << 33), max_value=1 << 33),
    )


#: Small payloads, and payloads either side of IPv4/UDP's 65535-byte total.
any_payloads = st.one_of(
    payloads, st.integers(min_value=0xFFFF - 40, max_value=0xFFFF + 8).map(bytes)
)
udp_kwargs = st.fixed_dictionaries(
    {"src_port": ints_in(16), "dst_port": ints_in(16), "payload": any_payloads}
)

#: name -> (encode a value built from kwargs, strategy of those kwargs).
CONSTRUCTIONS = {
    "ipv4": (
        lambda kw: Ipv4Packet(**kw).encode(),
        st.fixed_dictionaries({
            "src": ips, "dst": ips, "proto": ints_in(8),
            "payload": any_payloads, "ttl": ints_in(8),
            "identification": ints_in(16), "dscp": ints_in(6),
            "dont_fragment": st.booleans(),
        }),
    ),
    "icmp": (
        lambda kw: IcmpMessage(**kw).encode(),
        st.fixed_dictionaries({
            "icmp_type": ints_in(8), "code": ints_in(8),
            "rest_of_header": ints_in(32), "payload": any_payloads,
        }),
    ),
    "udp": (lambda kw: UdpDatagram(**kw).encode(), udp_kwargs),
    "udp-checksummed": (lambda kw: UdpDatagram(**kw).encode(SRC, DST), udp_kwargs),
    "tcp": (
        lambda kw: TcpSegment(**kw).encode(SRC, DST),
        st.fixed_dictionaries({
            "src_port": ints_in(16), "dst_port": ints_in(16),
            "seq": ints_in(32), "ack": ints_in(32), "flags": ints_in(8),
            "payload": any_payloads, "window": ints_in(16),
        }),
    ),
    "ethernet": (
        lambda kw: EthernetFrame(**kw).encode(),
        st.fixed_dictionaries({
            "dst": macs, "src": macs, "ethertype": ints_in(16),
            "payload": any_payloads,
        }),
    ),
}


@pytest.mark.parametrize("name", sorted(CONSTRUCTIONS))
@given(data=st.data())
def test_constructible_values_encode_or_raise_codec_errors(name, data):
    encode, kwargs = CONSTRUCTIONS[name]
    try:
        encode(data.draw(kwargs))
    except CodecError:
        pass  # refused by the constructor or the encoder: a typed error
