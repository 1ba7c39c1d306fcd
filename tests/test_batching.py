"""Unit tests for the batched data plane: coalescing, CAM watermark,
hook batch modes, the vectorized NIC filter and the switch batch path."""

from __future__ import annotations

import pytest

from repro.errors import ClockError
from repro.l2.cam import CamTable
from repro.l2.topology import Lan
from repro.net.addresses import MacAddress
from repro.obs.trace import TRACER
from repro.packets.ethernet import EtherType, EthernetFrame
from repro.perf import PERF
from repro.sim.simulator import Simulator
from repro.sim.trace import TraceRecorder
from repro.stack.host import Host


class _Sink:
    """Records deliver_batch calls with their items and the sim time."""

    def __init__(self, sim):
        self.sim = sim
        self.batches = []

    def deliver_batch(self, items):
        self.batches.append((self.sim.now, list(items)))


class TestCoalesce:
    def test_same_instant_items_share_one_flush(self):
        sim = Simulator(seed=1)
        sink = _Sink(sim)
        sim.coalesce(1.0, sink, "a")
        sim.coalesce(1.0, sink, "b")
        sim.coalesce(1.0, sink, "c")
        assert sim.pending() == 1  # one flush event, not three
        sim.run()
        assert sink.batches == [(1.0, ["a", "b", "c"])]

    def test_flush_is_one_slotted_event(self):
        sim = Simulator(seed=1)
        sink = _Sink(sim)
        sim.coalesce(1.0, sink, "a")
        sim.coalesce(1.0, sink, "b")
        (event,) = sim.iter_pending()
        # No closure and no instance dict: the event carries the batch.
        assert not hasattr(event, "__dict__")
        assert event.items == ["a", "b"] and event.sink is sink
        flushes, items = PERF.batch_flushes, PERF.batched_items
        sim.run()
        assert sink.batches == [(1.0, ["a", "b"])]
        assert sim._open_batches == {}
        assert (PERF.batch_flushes - flushes, PERF.batched_items - items) == (1, 2)

    def test_different_instants_do_not_coalesce(self):
        sim = Simulator(seed=1)
        sink = _Sink(sim)
        sim.coalesce(1.0, sink, "a")
        sim.coalesce(2.0, sink, "b")
        sim.run()
        assert sink.batches == [(1.0, ["a"]), (2.0, ["b"])]

    def test_different_sinks_do_not_coalesce(self):
        sim = Simulator(seed=1)
        one, two = _Sink(sim), _Sink(sim)
        sim.coalesce(1.0, one, "a")
        sim.coalesce(1.0, two, "b")
        sim.run()
        assert one.batches == [(1.0, ["a"])]
        assert two.batches == [(1.0, ["b"])]

    def test_batch_fires_at_first_items_heap_position(self):
        """The flush takes the first item's seq: events scheduled between
        the first and last coalesce at the same instant fire *after* it."""
        sim = Simulator(seed=1)
        sink = _Sink(sim)
        order = []
        sink_orig = sink.deliver_batch
        sink.deliver_batch = lambda items: (order.append("batch"), sink_orig(items))
        sim.coalesce(1.0, sink, "a")
        sim.schedule(1.0, lambda: order.append("plain"))
        sim.coalesce(1.0, sink, "b")  # rides the existing flush
        sim.run()
        assert order == ["batch", "plain"]
        assert sink.batches == [(1.0, ["a", "b"])]

    def test_coalesce_many_extends_open_batch(self):
        sim = Simulator(seed=1)
        sink = _Sink(sim)
        sim.coalesce(1.0, sink, "a")
        sim.coalesce_many(1.0, sink, ["b", "c"])
        sim.coalesce_many(1.0, sink, [])  # no-op, schedules nothing
        assert sim.pending() == 1
        sim.run()
        assert sink.batches == [(1.0, ["a", "b", "c"])]

    def test_all_entry_points_share_one_batch(self):
        """Whichever entry point opens the batch, the other two ride it:
        one flush, one PERF flush, items in call order."""
        calls = {
            "coalesce": lambda sim, sink, tag: sim.coalesce(1.0, sink, tag),
            "coalesce_many": lambda sim, sink, tag: sim.coalesce_many(
                1.0, sink, [tag, tag + "'"]
            ),
            "coalesce_at": lambda sim, sink, tag: sim.coalesce_at(1.0, sink, tag),
        }
        names = list(calls)
        for first in range(len(names)):
            order = names[first:] + names[:first]
            sim = Simulator(seed=1)
            sink = _Sink(sim)
            flushes, items = PERF.batch_flushes, PERF.batched_items
            for name in order:
                calls[name](sim, sink, name)
            assert sim.pending() == 1
            sim.run()
            expected = []
            for name in order:
                expected += [name, name + "'"] if name == "coalesce_many" else [name]
            assert sink.batches == [(1.0, expected)]
            assert PERF.batch_flushes - flushes == 1
            assert PERF.batched_items - items == 4

    def test_per_event_plane_delivers_each_item_on_its_own_event(self):
        """Batching off, or tracing on, picks the per-event plane: every
        item becomes one event handing ``sink.deliver_batch`` a batch of
        one, in call order."""
        for batching, traced in ((False, False), (True, True)):
            if traced:
                TRACER.reset()
                TRACER.enable()
            try:
                sim = Simulator(seed=1, batching=batching)
                sink = _Sink(sim)
                flushes = PERF.batch_flushes
                sim.coalesce(1.0, sink, "a")
                sim.coalesce_many(1.0, sink, ["b", "c"])
                sim.coalesce_at(1.0, sink, "d")
                assert sim.pending() == 4
                sim.run()
            finally:
                if traced:
                    TRACER.disable()
                    TRACER.reset()
            assert sink.batches == [
                (1.0, ["a"]), (1.0, ["b"]), (1.0, ["c"]), (1.0, ["d"])
            ]
            assert PERF.batch_flushes == flushes

    def test_negative_delay_rejected(self):
        sim = Simulator(seed=1)
        sink = _Sink(sim)
        with pytest.raises(ClockError):
            sim.coalesce(-0.1, sink, "a")
        with pytest.raises(ClockError):
            sim.coalesce_many(-0.1, sink, ["a"])

    def test_perf_counters_track_flushes_and_items(self):
        sim = Simulator(seed=1)
        sink = _Sink(sim)
        flushes, items = PERF.batch_flushes, PERF.batched_items
        sim.coalesce(1.0, sink, "a")
        sim.coalesce(1.0, sink, "b")
        sim.coalesce(2.0, sink, "c")
        sim.run()
        assert PERF.batch_flushes - flushes == 2
        assert PERF.batched_items - items == 3

    def test_default_batching_inherited_and_overridable(self):
        import repro.sim.simulator as simulator

        assert Simulator(seed=0).batching is simulator.DEFAULT_BATCHING
        assert Simulator(seed=0, batching=False).batching is False
        original = simulator.DEFAULT_BATCHING
        try:
            simulator.DEFAULT_BATCHING = False
            assert Simulator(seed=0).batching is False
        finally:
            simulator.DEFAULT_BATCHING = original


class TestStepSpans:
    def test_step_produces_sim_event_spans(self):
        """step() and run() share one dispatch helper: single-stepping a
        traced simulation logs the same sim.event spans a full run does."""
        TRACER.reset()
        TRACER.enable()
        try:
            sim = Simulator(seed=1)
            sim.schedule(0.5, lambda: None, name="tick")
            while sim.step():
                pass
            spans = [e for e in TRACER.events if e.name == "sim.event"]
            assert any(e.attrs.get("event") == "tick" for e in spans)
        finally:
            TRACER.disable()
            TRACER.reset()


class TestCamWatermark:
    def test_expire_is_skipped_below_watermark(self):
        cam = CamTable(capacity=16, aging=100.0)
        cam.learn(MacAddress("02:00:00:00:00:01"), 1, now=0.0)
        sweeps = cam.sweeps
        skips = cam.sweeps_skipped
        assert cam.expire(50.0) == 0  # watermark at 100.0: no sweep
        assert cam.sweeps == sweeps
        assert cam.sweeps_skipped == skips + 1

    def test_crossing_the_watermark_sweeps_and_recomputes(self):
        cam = CamTable(capacity=16, aging=100.0)
        a = MacAddress("02:00:00:00:00:01")
        b = MacAddress("02:00:00:00:00:02")
        cam.learn(a, 1, now=0.0)    # expires at 100
        cam.learn(b, 2, now=50.0)   # expires at 150
        assert cam.expire(120.0) == 1  # a dropped, b survives
        assert a not in cam and b in cam
        # Watermark now tracks b: the next early expire is O(1) again.
        sweeps = cam.sweeps
        cam.expire(130.0)
        assert cam.sweeps == sweeps

    def test_refresh_raises_expiry_without_stale_survivors(self):
        """A refreshed entry outlives the (conservative) watermark; the
        sweep that crosses it must still keep the refreshed entry."""
        cam = CamTable(capacity=16, aging=100.0)
        mac = MacAddress("02:00:00:00:00:01")
        cam.learn(mac, 1, now=0.0)
        cam.learn(mac, 1, now=90.0)  # now expires at 190
        assert cam.expire(150.0) == 0  # crosses old watermark, drops nothing
        assert cam.lookup(mac, now=150.0) == 1

    def test_learn_wire_and_lookup_round_trip(self):
        cam = CamTable(capacity=16, aging=100.0)
        packed = bytes.fromhex("020000000001")
        assert cam.learn_wire(packed, 3, now=0.0)
        assert cam.lookup(MacAddress.from_wire(packed), now=1.0) == 3
        assert cam.lookup_batch([packed], now=1.0) == [3]
        assert len(cam) == 1

    def test_learn_wire_rejects_multicast_and_full_table(self):
        cam = CamTable(capacity=1, aging=100.0)
        assert not cam.learn_wire(bytes.fromhex("ffffffffffff"), 0, now=0.0)
        assert cam.learn_wire(bytes.fromhex("020000000001"), 0, now=0.0)
        fails = cam.learn_failures
        assert not cam.learn_wire(bytes.fromhex("020000000002"), 0, now=0.0)
        assert cam.learn_failures == fails + 1

    def test_learn_wire_tracks_moves(self):
        cam = CamTable(capacity=16, aging=100.0)
        packed = bytes.fromhex("020000000001")
        cam.learn_wire(packed, 1, now=0.0)
        cam.learn_wire(packed, 2, now=1.0)
        assert cam.moves == 1
        assert cam.lookup(MacAddress.from_wire(packed), now=2.0) == 2

    def test_lookup_batch_resolves_after_single_sweep(self):
        cam = CamTable(capacity=16, aging=100.0)
        known = bytes.fromhex("020000000001")
        unknown = bytes.fromhex("020000000002")
        cam.learn_wire(known, 5, now=0.0)
        assert cam.lookup_batch([known, unknown, known], now=1.0) == [5, None, 5]

    def test_flush_and_flush_port_forget_wire_learned_entries(self):
        cam = CamTable(capacity=16, aging=100.0)
        a, b = bytes.fromhex("020000000001"), bytes.fromhex("020000000002")
        cam.learn_wire(a, 1, now=0.0)
        cam.learn_wire(b, 2, now=0.0)
        assert cam.flush_port(1) == 1
        assert cam.lookup_batch([a, b], now=0.0) == [None, 2]
        cam.flush()
        assert cam.lookup_batch([b], now=0.0) == [None]


def _foreign_unicast_wire() -> bytes:
    return EthernetFrame(
        dst=MacAddress("02:cc:00:00:00:99"),
        src=MacAddress("02:cc:00:00:00:01"),
        ethertype=EtherType.IPV4,
        payload=b"x" * 50,
    ).encode()


class TestHostNicBatchFilter:
    def test_foreign_unicast_filtered_without_frame_views(self):
        sim = Simulator(seed=2)
        host = Host(sim, "h", mac=MacAddress("02:bb:00:00:00:01"))
        host.recorder = TraceRecorder()
        batch = [_foreign_unicast_wire()] * 5
        lazy, filtered = PERF.lazy_frames, PERF.nic_batch_filtered
        host.on_frame_batch(host.nic, batch)
        assert PERF.nic_batch_filtered - filtered == 5
        assert PERF.lazy_frames == lazy
        assert len(host.recorder) == 0

    def test_addressed_and_broadcast_frames_survive(self):
        sim = Simulator(seed=2)
        host = Host(sim, "h", mac=MacAddress("02:bb:00:00:00:01"))
        host.recorder = TraceRecorder()
        mine = EthernetFrame(
            dst=host.mac,
            src=MacAddress("02:cc:00:00:00:01"),
            ethertype=EtherType.IPV4,
            payload=b"y" * 50,
        ).encode()
        bcast = EthernetFrame(
            dst=MacAddress("ff:ff:ff:ff:ff:ff"),
            src=MacAddress("02:cc:00:00:00:01"),
            ethertype=EtherType.IPV4,
            payload=b"z" * 50,
        ).encode()
        host.on_frame_batch(host.nic, [_foreign_unicast_wire(), mine, bcast])
        assert len(host.recorder) == 2  # the foreign unicast died unseen

    def test_one_frame_batch_is_filtered_like_a_wide_one(self):
        sim = Simulator(seed=2)
        host = Host(sim, "h", mac=MacAddress("02:bb:00:00:00:01"))
        host.recorder = TraceRecorder()
        lazy, filtered = PERF.lazy_frames, PERF.nic_batch_filtered
        host.on_frame_batch(host.nic, [_foreign_unicast_wire()])
        assert PERF.nic_batch_filtered - filtered == 1
        assert PERF.lazy_frames == lazy
        bcast = EthernetFrame(
            dst=MacAddress("ff:ff:ff:ff:ff:ff"),
            src=MacAddress("02:cc:00:00:00:01"),
            ethertype=EtherType.IPV4,
            payload=b"z" * 50,
        ).encode()
        host.on_frame_batch(host.nic, [bcast])
        assert PERF.nic_batch_filtered - filtered == 1
        assert [r.frame for r in host.recorder] == [bcast]

    def test_promiscuous_mode_disables_the_batch_filter(self):
        sim = Simulator(seed=2)
        host = Host(sim, "h", mac=MacAddress("02:bb:00:00:00:01"))
        host.recorder = TraceRecorder()
        host.promiscuous = True
        filtered = PERF.nic_batch_filtered
        host.on_frame_batch(host.nic, [_foreign_unicast_wire()] * 3)
        assert PERF.nic_batch_filtered == filtered
        assert len(host.recorder) == 3


class TestSwitchBatchPath:
    def test_ingress_filters_fall_back_to_per_frame(self):
        """A filter must observe switch state between frames, so its
        presence disables the vectorized plane for that switch."""
        sim = Simulator(seed=4)
        lan = Lan(sim)
        h0, h1 = lan.add_host("h0"), lan.add_host("h1")
        seen = []
        lan.switch.ingress_filters.add(lambda port, frame: seen.append(1) or True)
        h0.ping(h1.ip)
        sim.run(until=2.0)
        assert seen  # the filter actually ran, per frame

    def test_batched_lan_delivers_pings(self):
        sim = Simulator(seed=4, batching=True)
        lan = Lan(sim)
        h0, h1 = lan.add_host("h0"), lan.add_host("h1")
        replies = []
        h0.ping(h1.ip, on_reply=lambda src, rtt: replies.append(rtt))
        sim.run(until=2.0)
        assert len(replies) == 1

    def test_mirror_port_sees_batched_traffic(self):
        sim = Simulator(seed=4, batching=True)
        lan = Lan(sim)
        hosts = [lan.add_host(f"h{i}") for i in range(3)]
        monitor = lan.add_monitor()
        hosts[0].ping(hosts[1].ip)
        sim.run(until=2.0)
        assert monitor.nic.rx_frames > 0

    @staticmethod
    def _llc_broadcast(batching: bool):
        """A 60-byte 802.3/LLC broadcast (type field 0x002e, a length)
        sent by one host of a 2-host LAN; returns what it left behind."""
        sim = Simulator(seed=4, batching=batching)
        lan = Lan(sim)
        h0, h1 = lan.add_host("h0"), lan.add_host("h1")
        llc = b"\xff" * 6 + h0.mac.packed + b"\x00\x2e" + b"\x42\x42\x03" + bytes(43)
        assert len(llc) == 60
        h0.nic.transmit_batch((llc,))
        sim.run(until=1.0)
        switch = lan.switch
        return (
            (
                switch.undecodable_frames,
                switch.flooded_frames,
                switch.forwarded_frames,
                switch.dropped_frames,
            ),
            sorted((e.mac.packed, e.port_index) for e in switch.cam),
            {h.name: dict(h.counters) for h in (h0, h1)},
        )

    def test_8023_frames_are_dropped_on_both_planes(self):
        """An 802.3 length in the type field is undecodable on the
        batched plane too: counted, never learned, never flooded."""
        batched = self._llc_broadcast(batching=True)
        assert batched == self._llc_broadcast(batching=False)
        (undecodable, flooded, _, _), cam, counters = batched
        assert (undecodable, flooded, cam) == (1, 0, [])
        assert counters["h1"]["decode_errors"] == 0
