"""Unit tests for the packet codec layer (Ethernet, ARP, IPv4, UDP, TCP, ICMP)."""

from __future__ import annotations

import pytest

from repro.errors import ChecksumError, CodecError, TruncatedPacketError
from repro.l2.topology import Lan
from repro.net.addresses import BROADCAST_MAC, Ipv4Address, MacAddress, ZERO_MAC
from repro.packets import arp as arp_module
from repro.packets.arp import ArpExtension, ArpOp, ArpPacket, SARP_MAGIC, TARP_MAGIC
from repro.packets.base import Reader, internet_checksum
from repro.packets.ethernet import EtherType, EthernetFrame, MIN_PAYLOAD
from repro.packets.icmp import IcmpMessage, IcmpType
from repro.packets.ipv4 import IpProto, Ipv4Packet
from repro.packets.tcp import TcpFlags, TcpSegment
from repro.packets.udp import UdpDatagram

MAC_A = MacAddress("08:00:27:aa:aa:aa")
MAC_B = MacAddress("08:00:27:bb:bb:bb")
IP_A = Ipv4Address("192.168.88.10")
IP_B = Ipv4Address("192.168.88.1")


class TestReader:
    def test_take_past_end_raises(self):
        reader = Reader(b"abc")
        with pytest.raises(TruncatedPacketError):
            reader.take(4)

    def test_integer_reads(self):
        reader = Reader(bytes([1, 0, 2, 0, 0, 0, 3]))
        assert reader.u8() == 1
        assert reader.u16() == 2
        assert reader.u32() == 3

    def test_rest_consumes_everything(self):
        reader = Reader(b"abcdef")
        reader.take(2)
        assert reader.rest() == b"cdef"
        assert reader.remaining == 0

    def test_peek_does_not_consume(self):
        reader = Reader(b"abcdef")
        assert reader.peek(3) == b"abc"
        assert reader.position == 0


class TestChecksum:
    def test_known_value(self):
        # RFC 1071 example data
        data = bytes.fromhex("0001f203f4f5f6f7")
        assert internet_checksum(data) == 0x220D

    def test_checksum_of_data_plus_checksum_is_zero(self):
        data = b"\x45\x00\x00\x28" * 3
        csum = internet_checksum(data)
        import struct

        assert internet_checksum(data + struct.pack("!H", csum)) == 0

    def test_odd_length_padded(self):
        assert internet_checksum(b"\xff") == internet_checksum(b"\xff\x00")


class TestEthernet:
    def test_roundtrip(self):
        frame = EthernetFrame(MAC_B, MAC_A, EtherType.IPV4, b"payload")
        decoded = EthernetFrame.decode(frame.encode())
        assert decoded.dst == MAC_B
        assert decoded.src == MAC_A
        assert decoded.ethertype == EtherType.IPV4
        assert decoded.payload.startswith(b"payload")

    def test_minimum_frame_padding(self):
        frame = EthernetFrame(MAC_B, MAC_A, EtherType.ARP, b"x")
        assert len(frame.encode()) == 14 + MIN_PAYLOAD
        assert frame.wire_length == 14 + MIN_PAYLOAD

    def test_long_payload_not_padded(self):
        frame = EthernetFrame(MAC_B, MAC_A, EtherType.IPV4, b"y" * 100)
        assert len(frame.encode()) == 114

    def test_mtu_enforced(self):
        with pytest.raises(CodecError):
            EthernetFrame(MAC_B, MAC_A, EtherType.IPV4, b"z" * 1501)

    def test_8023_length_field_rejected(self):
        raw = MAC_B.packed + MAC_A.packed + (46).to_bytes(2, "big") + b"\x00" * 46
        with pytest.raises(CodecError):
            EthernetFrame.decode(raw)

    def test_truncated_header_rejected(self):
        with pytest.raises(TruncatedPacketError):
            EthernetFrame.decode(b"\x00" * 10)

    def test_broadcast_flag(self):
        assert EthernetFrame(BROADCAST_MAC, MAC_A, EtherType.ARP, b"").is_broadcast

    def test_summary_mentions_ethertype(self):
        frame = EthernetFrame(MAC_B, MAC_A, EtherType.ARP, b"")
        assert "ARP" in frame.summary()


class TestArp:
    def test_request_roundtrip(self):
        arp = ArpPacket.request(sha=MAC_A, spa=IP_A, tpa=IP_B)
        decoded = ArpPacket.decode(arp.encode())
        assert decoded.is_request
        assert decoded.sha == MAC_A
        assert decoded.spa == IP_A
        assert decoded.tpa == IP_B
        assert decoded.tha == ZERO_MAC

    def test_reply_roundtrip(self):
        arp = ArpPacket.reply(sha=MAC_B, spa=IP_B, tha=MAC_A, tpa=IP_A)
        decoded = ArpPacket.decode(arp.encode())
        assert decoded.is_reply
        assert decoded.binding() == (IP_B, MAC_B)

    def test_gratuitous_detection(self):
        grat = ArpPacket.gratuitous(sha=MAC_A, spa=IP_A)
        assert grat.is_gratuitous
        normal = ArpPacket.request(sha=MAC_A, spa=IP_A, tpa=IP_B)
        assert not normal.is_gratuitous

    def test_gratuitous_request_form(self):
        grat = ArpPacket.gratuitous(sha=MAC_A, spa=IP_A, as_reply=False)
        assert grat.is_request and grat.is_gratuitous

    def test_probe_detection(self):
        probe = ArpPacket.request(sha=MAC_A, spa=Ipv4Address("0.0.0.0"), tpa=IP_B)
        assert probe.is_probe

    def test_decode_survives_ethernet_padding(self):
        arp = ArpPacket.request(sha=MAC_A, spa=IP_A, tpa=IP_B)
        padded = arp.encode() + b"\x00" * 18  # minimum-frame padding
        decoded = ArpPacket.decode(padded)
        assert decoded.extension is None
        assert decoded.spa == IP_A

    def test_extension_roundtrip(self):
        ext = ArpExtension(magic=SARP_MAGIC, payload=b"signature-bytes")
        arp = ArpPacket.reply(sha=MAC_B, spa=IP_B, tha=MAC_A, tpa=IP_A, extension=ext)
        decoded = ArpPacket.decode(arp.encode())
        assert decoded.extension is not None
        assert decoded.extension.magic == SARP_MAGIC
        assert decoded.extension.payload == b"signature-bytes"

    def test_tarp_extension_roundtrip(self):
        ext = ArpExtension(magic=TARP_MAGIC, payload=b"ticket")
        arp = ArpPacket.reply(sha=MAC_B, spa=IP_B, tha=MAC_A, tpa=IP_A, extension=ext)
        assert ArpPacket.decode(arp.encode()).extension.magic == TARP_MAGIC

    def test_unknown_magic_rejected(self):
        with pytest.raises(CodecError):
            ArpExtension(magic=b"XXXX", payload=b"")

    def test_bad_op_rejected(self):
        with pytest.raises(CodecError):
            ArpPacket(op=3, sha=MAC_A, spa=IP_A, tha=MAC_B, tpa=IP_B)

    def test_bad_hardware_type_rejected(self):
        arp = ArpPacket.request(sha=MAC_A, spa=IP_A, tpa=IP_B)
        raw = bytearray(arp.encode())
        raw[0] = 0xFF
        with pytest.raises(CodecError):
            ArpPacket.decode(bytes(raw))

    def test_truncated_rejected(self):
        arp = ArpPacket.request(sha=MAC_A, spa=IP_A, tpa=IP_B)
        with pytest.raises(TruncatedPacketError):
            ArpPacket.decode(arp.encode()[:20])

    def test_summary_labels_gratuitous(self):
        assert "gratuitous" in ArpPacket.gratuitous(sha=MAC_A, spa=IP_A).summary()


@pytest.fixture
def empty_arp_memo(monkeypatch):
    """A fresh, empty decode memo for the duration of one test."""
    memo = type(arp_module._DECODED)()
    monkeypatch.setattr(arp_module, "_DECODED", memo)
    return memo


class TestArpDecodeMemo:
    def test_roundtrip_on_miss_and_hit(self, empty_arp_memo):
        ext = ArpExtension(magic=SARP_MAGIC, payload=b"sig")
        for arp in (
            ArpPacket.request(sha=MAC_A, spa=IP_A, tpa=IP_B),
            ArpPacket.reply(sha=MAC_B, spa=IP_B, tha=MAC_A, tpa=IP_A, extension=ext),
        ):
            wire = arp.encode()
            missed = ArpPacket.decode(wire)
            assert wire in empty_arp_memo
            hit = ArpPacket.decode(bytes(wire))  # an equal buffer, not the same object
            assert missed == arp and hit == arp
            assert hit is missed
            assert hit.encode() == wire

    def test_malformed_raises_every_time_and_is_not_stored(self, empty_arp_memo):
        raw = bytearray(ArpPacket.request(sha=MAC_A, spa=IP_A, tpa=IP_B).encode())
        raw[7] = 9  # op 9
        for bad in (bytes(raw), b"\x00\x01" * 5, b""):
            for _ in range(3):
                with pytest.raises(CodecError):
                    ArpPacket.decode(bad)
        assert len(empty_arp_memo) == 0

    def test_memo_never_exceeds_its_cap(self, empty_arp_memo):
        cap = arp_module.DECODE_MEMO_CAP
        first = None
        for i in range(cap + 50):
            ip = Ipv4Address(0x0A000000 + i)
            wire = ArpPacket.request(sha=MAC_A, spa=ip, tpa=IP_B).encode()
            first = first or wire
            assert ArpPacket.decode(wire).spa == ip
            assert len(empty_arp_memo) <= cap
        assert len(empty_arp_memo) == cap
        assert first not in empty_arp_memo  # the oldest went first
        assert ArpPacket.decode(first).spa == Ipv4Address(0x0A000000)

    def test_mutable_buffers_decode(self, empty_arp_memo):
        arp = ArpPacket.reply(
            sha=MAC_B, spa=IP_B, tha=MAC_A, tpa=IP_A,
            extension=ArpExtension(magic=TARP_MAGIC, payload=b"ticket"),
        )
        wire = arp.encode()
        for buf in (bytearray(wire), memoryview(wire), memoryview(bytearray(wire))):
            decoded = ArpPacket.decode(buf)
            assert decoded == arp
            assert type(decoded.extension.payload) is bytes
        mutable = bytearray(wire)
        decoded = ArpPacket.decode(mutable)
        mutable[8:14] = bytes(6)  # later writes do not reach the decoded packet
        assert ArpPacket.decode(mutable).sha == ZERO_MAC
        assert decoded.sha == MAC_B

    def test_flooded_request_every_guard_sees_an_equal_packet(self, sim, empty_arp_memo):
        lan = Lan(sim)
        hosts = [lan.add_host(f"h{i}") for i in range(4)]
        seen = {}
        for host in hosts[1:]:
            host.add_arp_guard(
                lambda h, arp, frame: seen.setdefault(h.name, arp) and None
            )
        sender = hosts[0]
        sender.resolve(hosts[1].ip, on_resolved=lambda mac: None)
        sim.run(until=1.0)
        expected = ArpPacket.request(sha=sender.mac, spa=sender.ip, tpa=hosts[1].ip)
        assert sorted(seen) == ["h1", "h2", "h3"]
        assert all(arp == expected for arp in seen.values())


class TestIpv4:
    def test_roundtrip_with_checksum(self):
        packet = Ipv4Packet(src=IP_A, dst=IP_B, proto=IpProto.UDP, payload=b"data")
        decoded = Ipv4Packet.decode(packet.encode())
        assert decoded.src == IP_A
        assert decoded.dst == IP_B
        assert decoded.proto == IpProto.UDP
        assert decoded.payload == b"data"
        assert decoded.ttl == 64

    def test_corrupted_header_fails_checksum(self):
        raw = bytearray(
            Ipv4Packet(src=IP_A, dst=IP_B, proto=1, payload=b"x").encode()
        )
        raw[8] ^= 0xFF  # flip TTL
        with pytest.raises(ChecksumError):
            Ipv4Packet.decode(bytes(raw))

    def test_checksum_verification_can_be_skipped(self):
        raw = bytearray(
            Ipv4Packet(src=IP_A, dst=IP_B, proto=1, payload=b"x").encode()
        )
        raw[8] ^= 0xFF
        decoded = Ipv4Packet.decode(bytes(raw), verify_checksum=False)
        assert decoded.ttl == 64 ^ 0xFF

    def test_total_length(self):
        packet = Ipv4Packet(src=IP_A, dst=IP_B, proto=17, payload=b"12345")
        assert packet.total_length == 25

    def test_ttl_decrement(self):
        packet = Ipv4Packet(src=IP_A, dst=IP_B, proto=17, payload=b"", ttl=2)
        assert packet.decremented().ttl == 1

    def test_ttl_zero_cannot_decrement(self):
        packet = Ipv4Packet(src=IP_A, dst=IP_B, proto=17, payload=b"", ttl=0)
        with pytest.raises(CodecError):
            packet.decremented()

    def test_invalid_ttl_rejected(self):
        with pytest.raises(CodecError):
            Ipv4Packet(src=IP_A, dst=IP_B, proto=17, payload=b"", ttl=300)

    def test_version_field_checked(self):
        raw = bytearray(Ipv4Packet(src=IP_A, dst=IP_B, proto=1, payload=b"").encode())
        raw[0] = (6 << 4) | 5
        with pytest.raises(CodecError):
            Ipv4Packet.decode(bytes(raw))

    def test_payload_trimmed_to_total_length(self):
        packet = Ipv4Packet(src=IP_A, dst=IP_B, proto=17, payload=b"abc")
        padded = packet.encode() + b"\x00" * 20  # ethernet padding
        assert Ipv4Packet.decode(padded).payload == b"abc"


class TestUdp:
    def test_roundtrip_plain(self):
        datagram = UdpDatagram(68, 67, b"dhcp-ish")
        decoded = UdpDatagram.decode(datagram.encode())
        assert (decoded.src_port, decoded.dst_port) == (68, 67)
        assert decoded.payload == b"dhcp-ish"

    def test_roundtrip_with_pseudo_header_checksum(self):
        datagram = UdpDatagram(1000, 2000, b"hello")
        wire = datagram.encode(IP_A, IP_B)
        decoded = UdpDatagram.decode(wire, IP_A, IP_B)
        assert decoded.payload == b"hello"

    def test_corruption_detected_with_ips(self):
        wire = bytearray(UdpDatagram(1000, 2000, b"hello").encode(IP_A, IP_B))
        wire[-1] ^= 0xFF
        with pytest.raises(ChecksumError):
            UdpDatagram.decode(bytes(wire), IP_A, IP_B)

    def test_port_range_enforced(self):
        with pytest.raises(CodecError):
            UdpDatagram(70000, 1, b"")

    def test_length_field(self):
        assert UdpDatagram(1, 2, b"abc").length == 11

    def test_padding_trimmed(self):
        wire = UdpDatagram(5, 6, b"xy").encode() + b"\x00" * 8
        assert UdpDatagram.decode(wire).payload == b"xy"


class TestTcp:
    def test_syn_roundtrip(self):
        seg = TcpSegment.syn(1234, 80, seq=42)
        decoded = TcpSegment.decode(seg.encode())
        assert decoded.flags & TcpFlags.SYN
        assert decoded.seq == 42

    def test_syn_ack_builder(self):
        seg = TcpSegment.syn_ack(80, 1234, seq=7, ack=43)
        assert seg.flags == TcpFlags.SYN | TcpFlags.ACK
        assert seg.ack == 43

    def test_rst_builder(self):
        assert TcpSegment.rst(80, 1234, seq=0).flags == TcpFlags.RST

    def test_checksum_with_ips(self):
        seg = TcpSegment(1, 2, 3, 4, TcpFlags.ACK, b"payload")
        wire = seg.encode(IP_A, IP_B)
        assert TcpSegment.decode(wire, IP_A, IP_B).payload == b"payload"

    def test_corruption_detected(self):
        wire = bytearray(TcpSegment(1, 2, 3, 4, TcpFlags.ACK, b"pp").encode(IP_A, IP_B))
        wire[-1] ^= 0x01
        with pytest.raises(ChecksumError):
            TcpSegment.decode(bytes(wire), IP_A, IP_B)

    def test_flags_describe(self):
        assert TcpFlags.describe(TcpFlags.SYN | TcpFlags.ACK) == "SYN|ACK"
        assert TcpFlags.describe(0) == "none"

    def test_bad_data_offset_rejected(self):
        wire = bytearray(TcpSegment.syn(1, 2, 3).encode())
        wire[12] = 4 << 4
        with pytest.raises(CodecError):
            TcpSegment.decode(bytes(wire))


class TestIcmp:
    def test_echo_roundtrip(self):
        msg = IcmpMessage.echo_request(identifier=7, sequence=3, payload=b"ping")
        decoded = IcmpMessage.decode(msg.encode())
        assert decoded.is_echo_request
        assert decoded.identifier == 7
        assert decoded.sequence == 3
        assert decoded.payload == b"ping"

    def test_reply_to(self):
        request = IcmpMessage.echo_request(9, 1, b"abc")
        reply = request.reply_to()
        assert reply.is_echo_reply
        assert reply.identifier == 9
        assert reply.payload == b"abc"

    def test_reply_to_rejects_non_request(self):
        reply = IcmpMessage.echo_reply(1, 1)
        with pytest.raises(CodecError):
            reply.reply_to()

    def test_checksum_detects_corruption(self):
        wire = bytearray(IcmpMessage.echo_request(1, 1, b"x").encode())
        wire[-1] ^= 0xFF
        with pytest.raises(ChecksumError):
            IcmpMessage.decode(bytes(wire))

    def test_type_names(self):
        assert IcmpType.name(8) == "echo-request"
        assert IcmpType.name(0) == "echo-reply"
