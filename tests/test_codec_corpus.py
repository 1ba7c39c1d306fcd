"""Encoder output pinned byte for byte on a seeded corpus.

Each builder below draws about a thousand packets of one type from a
fixed-seed ``random.Random``: ARP (classic, S-ARP and TARP extensions),
IPv4 carrying ICMP and UDP, TCP, DHCP and Ethernet.  The SHA-256 of the
concatenated encodings of each type is pinned, so any change to what an
encoder writes -- a field order, a checksum, the minimum-frame padding --
fails here.  The digests were computed with the encoders that packed
each header through a ``bytearray`` (IPv4) or twice (ICMP), so they hold
the one-pack encoders to the same bytes.  Every packet must also decode
back to itself.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.net.addresses import Ipv4Address, MacAddress
from repro.packets.arp import ArpExtension, ArpOp, ArpPacket, SARP_MAGIC, TARP_MAGIC
from repro.packets.dhcp import DhcpMessage
from repro.packets.ethernet import MIN_PAYLOAD, EthernetFrame
from repro.packets.icmp import IcmpMessage, IcmpType
from repro.packets.ipv4 import IpProto, Ipv4Packet
from repro.packets.tcp import TcpSegment
from repro.packets.udp import UdpDatagram

#: Packets per type.
COUNT = 1000

#: SHA-256 of each type's concatenated encodings, in corpus order.
DIGESTS = {
    "arp": "c1b3da9ace113a9fabd41b540e69c6e3bd374de932ee72559e3fb6e11e45efb2",
    "ipv4-icmp": "30a349d3e0c07f6c0b03a816191d8bbff7ec36e9eb08cec6e381d2d721b2e662",
    "ipv4-udp": "00d4c03bfb7bebb130e283bcab4ac94c743d59370b640d77daec609f20c57beb",
    "tcp": "1265b8ec7d8cfc458c5275ab4ffa580bf669b5afe2b30262f3f4d2d6dbf0569f",
    "dhcp": "72c5334b4a2221f1a05c745ba533d28d67447e0098a1e489bdad1a6803ff8a8a",
    "ethernet": "d69fbb491d0c28e51f20bc0c1d2d8cc4b8121e49569bc54262c5a9ec4698a9a5",
}


def _mac(rng: random.Random) -> MacAddress:
    return MacAddress(rng.getrandbits(48))


def _ip(rng: random.Random) -> Ipv4Address:
    return Ipv4Address(rng.getrandbits(32))


def _blob(rng: random.Random, low: int, high: int) -> bytes:
    return rng.randbytes(rng.randint(low, high))


def _arp(rng: random.Random):
    for _ in range(COUNT):
        kind = rng.randrange(3)
        extension = None
        if kind:
            magic = SARP_MAGIC if kind == 1 else TARP_MAGIC
            extension = ArpExtension(magic=magic, payload=_blob(rng, 0, 120))
        op = rng.choice((ArpOp.REQUEST, ArpOp.REPLY))
        spa = _ip(rng) if rng.random() < 0.9 else Ipv4Address(0)  # some probes
        tpa = spa if rng.random() < 0.2 else _ip(rng)  # some gratuitous
        packet = ArpPacket(
            op=op, sha=_mac(rng), spa=spa, tha=_mac(rng), tpa=tpa,
            extension=extension,
        )
        wire = packet.encode()
        decoded = ArpPacket.decode(wire)
        # The decoder settles is_gratuitous from the wire bytes.
        assert decoded.is_gratuitous == packet.is_gratuitous == (
            spa == tpa and not spa.is_unspecified
        )
        yield wire, decoded, packet


def _ipv4(rng: random.Random, proto: int, payload: bytes) -> Ipv4Packet:
    return Ipv4Packet(
        src=_ip(rng),
        dst=_ip(rng),
        proto=proto,
        payload=payload,
        ttl=rng.randrange(256),
        identification=rng.randrange(0x10000),
        dscp=rng.randrange(64),
        dont_fragment=rng.random() < 0.5,
    )


def _ipv4_icmp(rng: random.Random):
    for i in range(COUNT):
        payload = _blob(rng, 0, 96)
        ident, seq = rng.randrange(0x10000), rng.randrange(0x10000)
        if i % 4 == 0:
            message = IcmpMessage.echo_request(ident, seq, payload)
        elif i % 4 == 1:
            message = IcmpMessage.echo_reply(ident, seq, payload)
        else:
            message = IcmpMessage(
                icmp_type=rng.choice((IcmpType.DEST_UNREACHABLE, IcmpType.TIME_EXCEEDED)),
                code=rng.randrange(16),
                rest_of_header=rng.getrandbits(32),
                payload=payload,
            )
        inner = message.encode()
        assert IcmpMessage.decode(inner) == message
        packet = _ipv4(rng, IpProto.ICMP, inner)
        wire = packet.encode()
        yield wire, Ipv4Packet.decode(wire), packet


def _ipv4_udp(rng: random.Random):
    for _ in range(COUNT):
        datagram = UdpDatagram(
            rng.randrange(0x10000), rng.randrange(0x10000), _blob(rng, 0, 300)
        )
        packet = _ipv4(rng, IpProto.UDP, b"")
        if rng.random() < 0.25:
            inner = datagram.encode()  # the checksum-less form
            assert UdpDatagram.decode(inner) == datagram
        else:
            inner = datagram.encode(packet.src, packet.dst)
            assert UdpDatagram.decode(inner, packet.src, packet.dst) == datagram
        packet = Ipv4Packet(
            src=packet.src, dst=packet.dst, proto=IpProto.UDP, payload=inner,
            ttl=packet.ttl, identification=packet.identification,
            dscp=packet.dscp, dont_fragment=packet.dont_fragment,
        )
        wire = packet.encode()
        yield wire, Ipv4Packet.decode(wire), packet


def _tcp(rng: random.Random):
    for _ in range(COUNT):
        segment = TcpSegment(
            rng.randrange(0x10000),
            rng.randrange(0x10000),
            rng.getrandbits(32),
            rng.getrandbits(32),
            rng.randrange(0x100),
            _blob(rng, 0, 200),
            rng.randrange(0x10000),
        )
        if rng.random() < 0.25:
            wire = segment.encode()
            yield wire, TcpSegment.decode(wire), segment
        else:
            src, dst = _ip(rng), _ip(rng)
            wire = segment.encode(src, dst)
            yield wire, TcpSegment.decode(wire, src, dst), segment


def _dhcp(rng: random.Random):
    for i in range(COUNT):
        mac, xid = _mac(rng), rng.getrandbits(32)
        server, addr, router = _ip(rng), _ip(rng), _ip(rng)
        lease = rng.getrandbits(32)
        netmask = Ipv4Address(0xFFFFFF00)
        kind = i % 7
        if kind == 0:
            message = DhcpMessage.discover(mac, xid)
        elif kind == 1:
            message = DhcpMessage.offer(mac, xid, addr, server, lease, netmask, router)
        elif kind == 2:
            message = DhcpMessage.request(mac, xid, addr, server)
        elif kind == 3:
            message = DhcpMessage.ack(mac, xid, addr, server, lease, netmask, router)
        elif kind == 4:
            message = DhcpMessage.nak(mac, xid, server)
        elif kind == 5:
            message = DhcpMessage.release(mac, xid, addr, server)
        else:
            options = {
                rng.randrange(1, 255): _blob(rng, 0, 40)
                for _ in range(rng.randrange(6))
            }
            message = DhcpMessage(
                op=rng.choice((1, 2)), xid=xid, chaddr=mac,
                ciaddr=_ip(rng), yiaddr=addr, siaddr=server, giaddr=router,
                flags=rng.randrange(0x10000), secs=rng.randrange(0x10000),
                options=options,
            )
        wire = message.encode()
        yield wire, DhcpMessage.decode(wire), message


def _ethernet(rng: random.Random):
    for _ in range(COUNT):
        frame = EthernetFrame(
            dst=_mac(rng),
            src=_mac(rng),
            ethertype=rng.randrange(0x0600, 0x10000),
            payload=_blob(rng, 0, 1500),
        )
        wire = frame.encode()
        # A short payload comes back with its minimum-frame padding.
        padding = b"\x00" * max(0, MIN_PAYLOAD - len(frame.payload))
        expected = EthernetFrame(
            dst=frame.dst, src=frame.src, ethertype=frame.ethertype,
            payload=frame.payload + padding,
        )
        yield wire, EthernetFrame.decode(wire), expected


BUILDERS = {
    "arp": _arp,
    "ipv4-icmp": _ipv4_icmp,
    "ipv4-udp": _ipv4_udp,
    "tcp": _tcp,
    "dhcp": _dhcp,
    "ethernet": _ethernet,
}


def corpus_digest(kind: str) -> str:
    """SHA-256 of ``kind``'s corpus; asserts every decode round trip."""
    rng = random.Random(f"codec-corpus/{kind}")
    sha = hashlib.sha256()
    count = 0
    for wire, decoded, expected in BUILDERS[kind](rng):
        assert decoded == expected, (kind, count)
        sha.update(wire)
        count += 1
    assert count == COUNT
    return sha.hexdigest()


@pytest.mark.parametrize("kind", sorted(BUILDERS))
def test_encoder_output_is_pinned(kind):
    assert corpus_digest(kind) == DIGESTS[kind]


if __name__ == "__main__":  # print the digests to pin
    for name in BUILDERS:
        print(f'    "{name}": "{corpus_digest(name)}",')
