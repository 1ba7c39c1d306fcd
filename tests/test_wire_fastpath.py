"""Tests for the zero-copy wire fast path and its supporting machinery.

Covers encode memoization, lazy frame views, address interning, the
single-serialization flood path, the simulator's cancelled-event
compaction, the trace ring buffer, checksum edge cases, and — because
every optimization here must be invisible to the physics — fixed-seed
determinism of the full scenario pipeline.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.errors import CodecError, TruncatedPacketError
from repro.l2.device import Link
from repro.l2.switch import Switch
from repro.l2.topology import Lan
from repro.net.addresses import (
    BROADCAST_MAC,
    Ipv4Address,
    MacAddress,
    intern_stats,
)
from repro.packets.arp import ArpOp, ArpPacket
from repro.packets.base import internet_checksum
from repro.packets.ethernet import EtherType, EthernetFrame, FrameView
from repro.packets.ipv4 import IpProto, Ipv4Packet
from repro.packets.tcp import TcpSegment
from repro.packets.udp import UdpDatagram
from repro.perf import PERF, PerfCounters
from repro.sim.simulator import Simulator
from repro.sim.trace import DEFAULT_CAPACITY, Direction, TraceRecorder

MAC_A = MacAddress("08:00:27:aa:aa:aa")
MAC_B = MacAddress("08:00:27:bb:bb:bb")
IP_A = Ipv4Address("10.0.0.1")
IP_B = Ipv4Address("10.0.0.2")


def _arp() -> ArpPacket:
    return ArpPacket(op=ArpOp.REQUEST, sha=MAC_A, spa=IP_A, tha=BROADCAST_MAC, tpa=IP_B)


# ======================================================================
# Encode memoization
# ======================================================================
class TestEncodeMemoization:
    def test_reencode_returns_identical_buffer(self):
        packet = _arp()
        assert packet.encode() is packet.encode()

    def test_memo_counters(self):
        counters = PERF
        packet = _arp()
        encodes, avoided = counters.packet_encodes, counters.encodes_avoided
        packet.encode()
        assert counters.packet_encodes == encodes + 1
        packet.encode()
        packet.encode()
        assert counters.encodes_avoided == avoided + 2

    def test_memo_not_carried_across_replace(self):
        """dataclasses.replace must not inherit the stale buffer."""
        packet = _arp()
        first = packet.encode()
        other = dataclasses.replace(packet, op=ArpOp.REPLY)
        assert other.encode() != first
        assert ArpPacket.decode(other.encode()).op == ArpOp.REPLY

    def test_memo_invisible_to_equality_and_hash(self):
        a, b = _arp(), _arp()
        a.encode()  # a holds a memo, b does not
        assert a == b
        assert hash(a) == hash(b)

    def test_every_codec_roundtrips_through_the_memo(self):
        frame = EthernetFrame(MAC_B, MAC_A, EtherType.IPV4, b"x" * 50)
        ip = Ipv4Packet(src=IP_A, dst=IP_B, proto=IpProto.UDP, payload=b"p" * 8)
        for packet, decode in (
            (frame, EthernetFrame.decode),
            (ip, Ipv4Packet.decode),
            (_arp(), ArpPacket.decode),
            (TcpSegment.syn(1000, 80, 42), TcpSegment.decode),
            (UdpDatagram(68, 67, b"dhcp"), UdpDatagram.decode),
        ):
            wire = packet.encode()
            assert packet.encode() is wire
            assert decode(wire) == packet

    def test_tcp_checksummed_form_not_memoized(self):
        segment = TcpSegment.syn(1000, 80, 42)
        plain = segment.encode()
        checksummed = segment.encode(IP_A, IP_B)
        assert plain != checksummed
        assert segment.encode() is plain  # memo belongs to the plain form


# ======================================================================
# Lazy frame views
# ======================================================================
class TestFrameView:
    def _wire(self, payload: bytes = b"y" * 64) -> bytes:
        return EthernetFrame(MAC_B, MAC_A, EtherType.IPV4, payload).encode()

    def test_header_parsed_payload_deferred(self):
        view = EthernetFrame.lazy(self._wire())
        assert view.dst == MAC_B and view.src == MAC_A
        assert view.ethertype == EtherType.IPV4
        assert not view.payload_materialized

    def test_payload_materializes_once(self):
        view = EthernetFrame.lazy(self._wire())
        decodes = PERF.payload_decodes
        first = view.payload
        assert view.payload is first
        assert PERF.payload_decodes == decodes + 1
        assert view.payload_materialized

    def test_lazy_skip_counter(self):
        skipped = PERF.lazy_decodes_skipped
        EthernetFrame.lazy(self._wire())  # never touches the body
        assert PERF.lazy_decodes_skipped == skipped + 1

    def test_encode_returns_original_buffer(self):
        wire = self._wire()
        assert EthernetFrame.lazy(wire).encode() is wire

    def test_encode_pads_short_capture(self):
        short = self._wire()[:20]  # header + 6 payload bytes
        padded = EthernetFrame.lazy(short).encode()
        assert len(padded) == 60
        assert padded[:20] == short

    def test_equality_with_eager_frame_both_directions(self):
        wire = self._wire()
        view, eager = EthernetFrame.lazy(wire), EthernetFrame.decode(wire)
        assert view == eager
        assert eager == view
        assert hash(view) == hash(eager)

    def test_materialize(self):
        wire = self._wire()
        assert EthernetFrame.lazy(wire).materialize() == EthernetFrame.decode(wire)

    def test_view_raises_same_errors_as_decode(self):
        with pytest.raises(TruncatedPacketError):
            EthernetFrame.lazy(b"\x00" * 10)
        with pytest.raises(CodecError):
            EthernetFrame.lazy(b"\x00" * 12 + b"\x00\x2e" + b"\x00" * 46)

    def test_wire_length_and_summary_parity(self):
        wire = self._wire()
        view, eager = EthernetFrame.lazy(wire), EthernetFrame.decode(wire)
        assert view.wire_length == eager.wire_length
        assert view.summary() == eager.summary()
        assert view.is_broadcast == eager.is_broadcast
        assert isinstance(view, FrameView)


# ======================================================================
# Address interning
# ======================================================================
class TestAddressInterning:
    def test_from_wire_returns_interned_instance(self):
        packed = MAC_A.packed
        assert MacAddress.from_wire(packed) is MacAddress.from_wire(packed)
        ip_packed = IP_A.packed
        assert Ipv4Address.from_wire(ip_packed) is Ipv4Address.from_wire(ip_packed)

    def test_interned_equals_constructed(self):
        assert MacAddress.from_wire(MAC_A.packed) == MAC_A
        assert Ipv4Address.from_wire(IP_A.packed) == IP_A

    def test_intern_stats_move(self):
        hits_before, _ = intern_stats()
        packed = MacAddress("02:11:22:33:44:55").packed
        MacAddress.from_wire(packed)  # miss or hit; warms the entry
        MacAddress.from_wire(packed)  # guaranteed hit
        hits_after, _ = intern_stats()
        assert hits_after > hits_before

    def test_from_wire_accepts_memoryview(self):
        data = memoryview(MAC_A.packed)
        assert MacAddress.from_wire(data) == MAC_A


# ======================================================================
# Single-serialization flooding
# ======================================================================
class TestFloodSerialization:
    def test_plain_flood_reuses_ingress_buffer(self):
        sim = Simulator(seed=3)
        lan = Lan(sim)
        hosts = [lan.add_host(f"h{i}") for i in range(5)]
        sim.run(until=0.5)
        reuses = PERF.flood_buffer_reuses
        frame = EthernetFrame(BROADCAST_MAC, hosts[0].mac, EtherType.IPV4, b"b" * 46)
        hosts[0].transmit_frame(frame)
        sim.run(until=sim.now + 1.0)
        assert PERF.flood_buffer_reuses > reuses

    def test_vlan_flood_encodes_each_form_once(self):
        sim = Simulator(seed=3)
        switch = Switch(sim, "sw", num_ports=8)
        switch.set_access_port(0, 10)
        for index in range(1, 6):
            switch.set_trunk_port(index)  # all carry VLAN 10 -> tagged egress
            peer = Switch(sim, f"peer{index}", num_ports=2)
            Link(sim, switch.ports[index], peer.ports[0])
        frame = EthernetFrame(BROADCAST_MAC, MAC_A, EtherType.IPV4, b"v" * 46)
        wire = frame.encode()
        encodes_before = PERF.packet_encodes
        reuses_before = PERF.flood_buffer_reuses
        switch.on_frame_batch(switch.ports[0], [wire])
        # Five cabled trunk egress ports (two more stay uncabled), one
        # tagged serialization, four re-sends of it.
        assert PERF.flood_buffer_reuses == reuses_before + 4
        # The tagged form was built exactly once (one frame encode).
        assert PERF.packet_encodes - encodes_before <= 2

    def test_flood_still_delivers_everywhere(self):
        sim = Simulator(seed=3)
        lan = Lan(sim)
        hosts = [lan.add_host(f"h{i}") for i in range(4)]
        sim.run(until=0.5)
        before = [h.counters["arp_rx"] for h in hosts[1:]]
        hosts[0].ping(hosts[1].ip)  # cold cache -> broadcast ARP request
        sim.run(until=sim.now + 1.0)
        # A broadcast ARP request reaches every other host's stack.
        after = [h.counters["arp_rx"] for h in hosts[1:]]
        assert all(b > a for a, b in zip(before, after))


# ======================================================================
# Simulator: tuple heap + cancelled-event compaction
# ======================================================================
class TestSimulatorCompaction:
    def test_cancelled_events_do_not_fire(self):
        sim = Simulator()
        fired = []
        keep = sim.schedule(1.0, lambda: fired.append("keep"))
        kill = sim.schedule(0.5, lambda: fired.append("kill"))
        kill.cancel()
        sim.run()
        assert fired == ["keep"]
        assert keep.time == 1.0

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        event.cancel()
        event.cancel()
        assert sim.pending() == 0

    def test_pending_is_exact_after_cancellations(self):
        sim = Simulator()
        events = [sim.schedule(float(i + 1), lambda: None) for i in range(10)]
        for event in events[::2]:
            event.cancel()
        assert sim.pending() == 5

    def test_heap_compacts_when_mostly_cancelled(self):
        sim = Simulator()
        events = [sim.schedule(float(i + 1), lambda: None) for i in range(200)]
        for event in events[:180]:
            event.cancel()
        assert sim.heap_compactions >= 1
        assert sim.pending() == 20
        # The leak is bounded: residual cancelled entries stay below the
        # compaction threshold instead of accumulating forever.
        assert len(sim._heap) - sim.pending() < 64

    def test_compaction_preserves_firing_order(self):
        sim = Simulator()
        fired = []
        events = []
        for i in range(300):
            events.append(sim.schedule(float(i + 1), lambda i=i: fired.append(i)))
        for i, event in enumerate(events):
            if i % 3 != 0:  # cancel two thirds -> triggers compaction
                event.cancel()
        assert sim.heap_compactions >= 1
        sim.run()
        assert fired == [i for i in range(300) if i % 3 == 0]

    def test_cancel_after_fire_does_not_corrupt_accounting(self):
        sim = Simulator()
        event = sim.schedule(0.5, lambda: None)
        sim.schedule(1.0, lambda: None)
        sim.run(until=0.7)
        event.cancel()  # already fired and popped; must be a no-op
        assert sim.pending() == 1
        sim.run()
        assert sim.pending() == 0

    def test_same_time_events_fire_in_schedule_order(self):
        sim = Simulator()
        fired = []
        for i in range(20):
            sim.schedule(1.0, lambda i=i: fired.append(i))
        sim.run()
        assert fired == list(range(20))

    def test_cancel_from_within_running_action(self):
        sim = Simulator()
        fired = []
        later = [sim.schedule(2.0 + i, lambda i=i: fired.append(i)) for i in range(100)]

        def cancel_most():
            for event in later[:90]:
                event.cancel()

        sim.schedule(1.0, cancel_most)
        sim.run()
        assert fired == list(range(90, 100))


# ======================================================================
# Trace ring buffer
# ======================================================================
class TestTraceRingBuffer:
    def test_default_capacity_is_large(self):
        recorder = TraceRecorder()
        assert recorder.capacity == DEFAULT_CAPACITY == 1 << 18

    def test_ring_keeps_newest(self):
        recorder = TraceRecorder(capacity=3)
        for i in range(7):
            recorder.record(float(i), "x", Direction.TX, bytes([i]))
        assert recorder.dropped == 4
        assert [r.frame for r in recorder.records] == [b"\x04", b"\x05", b"\x06"]

    def test_unbounded_override(self):
        recorder = TraceRecorder(capacity=None)
        for i in range(100):
            recorder.record(float(i), "x", Direction.TX, b"z")
        assert len(recorder) == 100 and recorder.dropped == 0

    def test_taps_see_evicted_records(self):
        recorder = TraceRecorder(capacity=1)
        seen = []
        recorder.tap(seen.append)
        for i in range(4):
            recorder.record(float(i), "x", Direction.TX, bytes([i]))
        assert len(seen) == 4  # taps are live; the ring only bounds storage
        assert len(recorder) == 1


# ======================================================================
# Checksum edge cases
# ======================================================================
class TestChecksumEdges:
    def test_empty(self):
        assert internet_checksum(b"") == 0xFFFF

    def test_single_byte(self):
        # One byte contributes as the high octet of a padded word.
        assert internet_checksum(b"\xab") == ~(0xAB00) & 0xFFFF

    def test_odd_equals_explicitly_padded_even(self):
        data = bytes(range(33))
        assert internet_checksum(data) == internet_checksum(data + b"\x00")

    def test_64k_buffer(self):
        data = b"\xff" * 65536
        csum = internet_checksum(data)
        assert 0 <= csum <= 0xFFFF
        # All-ones data sums to all-ones words; complement is zero.
        assert csum == 0

    def test_memoryview_input(self):
        data = bytes(range(64))
        assert internet_checksum(memoryview(data)) == internet_checksum(data)

    def test_rfc1071_example(self):
        # RFC 1071 worked example: 00 01 f2 03 f4 f5 f6 f7 -> sum 2ddf0 ->
        # folded ddf2, checksum ~ddf2 = 220d.
        assert internet_checksum(bytes.fromhex("0001f203f4f5f6f7")) == 0x220D


# ======================================================================
# Perf counters
# ======================================================================
class TestPerfCounters:
    def test_snapshot_is_json_safe(self):
        import json

        from repro.obs import REGISTRY

        snapshot = REGISTRY.snapshot()["collectors"]["perf"]
        json.dumps(snapshot)
        # The memo rate's inputs; the summary derives the rate.
        assert {"packet_encodes", "encodes_avoided"} <= set(snapshot)

    def test_reset_rebaselines(self):
        counters = PerfCounters()
        counters.packet_encodes = 5
        counters.reset()
        assert counters.packet_encodes == 0
        assert counters.intern_hits == 0  # relative to the new baseline

    def test_summary_mentions_key_rates(self):
        from repro.obs import REGISTRY
        from repro.perf import summary

        text = summary(REGISTRY.collect("perf"))
        assert "memoized" in text and "intern-hit-rate" in text
        assert "arp-settled=3," in summary({"arp_settled": 3})

    def test_gc_runs_count_collections_since_reset(self):
        import gc

        from repro.obs import REGISTRY
        from repro.perf import summary

        counters = PerfCounters()
        enabled = gc.isenabled()
        gc.disable()  # only the explicit collections below may count
        try:
            counters.reset()
            assert (counters.gc_gen0, counters.gc_gen1, counters.gc_gen2) == (0, 0, 0)
            gc.collect(0)
            gc.collect()
            gc.collect()
            assert (counters.gc_gen0, counters.gc_gen1, counters.gc_gen2) == (1, 0, 2)
        finally:
            if enabled:
                gc.enable()
        assert {"gc_gen0", "gc_gen1", "gc_gen2"} <= set(REGISTRY.collect("perf"))
        line = summary({"gc_gen0": 51, "gc_gen1": 5, "gc_gen2": 1})
        assert "gc-runs=51/5/1" in line


# ======================================================================
# NIC-level filtering
# ======================================================================
class TestNicFilter:
    def _lan(self):
        sim = Simulator(seed=5)
        lan = Lan(sim)
        hosts = [lan.add_host(f"h{i}") for i in range(3)]
        for host in hosts:
            host.recorder = TraceRecorder()
        sim.run(until=0.5)
        return sim, lan, hosts

    def test_foreign_unicast_not_captured_without_promisc(self):
        sim, lan, hosts = self._lan()
        a, b, c = hosts
        a.ping(b.ip)  # unicast exchange a <-> b
        sim.run(until=sim.now + 2.0)
        # c saw the broadcast ARP request but not the unicast reply/echo.
        locations = [r.frame[:6] for r in c.recorder.records]
        assert all(
            frame_dst == b"\xff\xff\xff\xff\xff\xff" or frame_dst == c.mac.packed
            for frame_dst in locations
        )

    def test_promiscuous_host_captures_everything(self):
        sim, lan, hosts = self._lan()
        a, b, c = hosts
        c.promiscuous = True
        # Put c's port in the flood path by keeping its CAM entry cold:
        a.ping(b.ip)
        sim.run(until=sim.now + 2.0)
        assert len(c.recorder.records) >= 1

    def test_stack_still_receives_addressed_traffic(self):
        sim, lan, hosts = self._lan()
        a, b, _ = hosts
        a.ping(b.ip)
        sim.run(until=sim.now + 2.0)
        assert a.counters["icmp_reply_rx"] >= 1


# ======================================================================
# Determinism: the fast path must not perturb the physics
# ======================================================================
class TestDeterminism:
    def _digest(self, seed: int):
        sim = Simulator(seed=seed)
        lan = Lan(sim)
        hosts = [lan.add_host(f"h{i}") for i in range(6)]
        monitor = lan.add_monitor("mon")
        monitor.recorder = TraceRecorder()
        sim.run(until=0.5)
        hosts[0].ping(hosts[1].ip)
        hosts[2].ping(hosts[3].ip)
        hosts[4].resolve(hosts[5].ip, on_resolved=lambda mac: None)
        sim.run(until=sim.now + 5.0)
        return [
            (r.time, r.location, r.direction, r.frame)
            for r in monitor.recorder.records
        ]

    def test_identical_seeds_identical_traces(self):
        first = self._digest(97)
        second = self._digest(97)
        assert first == second  # byte-identical records, times included

    def test_different_seeds_still_run(self):
        assert self._digest(1) != [] and self._digest(2) != []
