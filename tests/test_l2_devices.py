"""Unit tests for L2 devices: CAM table, switch, hub, ports and links."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.errors import PortError, TopologyError
from repro.l2.cam import CamTable
from repro.l2.device import Device, Link, Port
from repro.l2.hub import Hub
from repro.l2.switch import Switch
from repro.net.addresses import BROADCAST_MAC, MacAddress
from repro.packets.ethernet import EtherType, EthernetFrame
from repro.perf import PERF
from repro.sim.simulator import Simulator

M1 = MacAddress("02:00:00:00:00:01")
M2 = MacAddress("02:00:00:00:00:02")
M3 = MacAddress("02:00:00:00:00:03")


class Sink(Device):
    """A device that records every frame delivered to it."""

    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.port = self.add_port()
        self.received: list[bytes] = []

    def on_frame_batch(self, port, datas):
        self.received.extend(datas)

    def send(self, frame: EthernetFrame) -> None:
        self.port.transmit_batch((frame.encode(),))


def frame(src, dst, payload=b"x", ethertype=EtherType.IPV4):
    return EthernetFrame(dst=dst, src=src, ethertype=ethertype, payload=payload)


class TestCamTable:
    def test_learn_and_lookup(self):
        cam = CamTable()
        assert cam.learn(M1, 3, now=0.0)
        assert cam.lookup(M1, now=1.0) == 3

    def test_aging_expires_entries(self):
        cam = CamTable(aging=10.0)
        cam.learn(M1, 3, now=0.0)
        assert cam.lookup(M1, now=9.9) == 3
        assert cam.lookup(M1, now=10.1) is None

    def test_refresh_extends_lifetime(self):
        cam = CamTable(aging=10.0)
        cam.learn(M1, 3, now=0.0)
        cam.learn(M1, 3, now=8.0)
        assert cam.lookup(M1, now=15.0) == 3

    def test_station_move_updates_port(self):
        cam = CamTable()
        cam.learn(M1, 3, now=0.0)
        cam.learn(M1, 5, now=1.0)
        assert cam.lookup(M1, now=2.0) == 5
        assert cam.moves == 1

    def test_capacity_limit_rejects_new(self):
        cam = CamTable(capacity=2)
        cam.learn(M1, 1, now=0.0)
        cam.learn(M2, 2, now=0.0)
        assert not cam.learn(M3, 3, now=0.0)
        assert cam.learn_failures == 1
        assert cam.is_full

    def test_full_table_still_refreshes_known(self):
        cam = CamTable(capacity=1)
        cam.learn(M1, 1, now=0.0)
        assert cam.learn(M1, 1, now=5.0)

    def test_expiry_frees_capacity(self):
        cam = CamTable(capacity=1, aging=10.0)
        cam.learn(M1, 1, now=0.0)
        assert cam.learn(M2, 2, now=11.0)

    def test_multicast_sources_never_learned(self):
        cam = CamTable()
        assert not cam.learn(BROADCAST_MAC, 1, now=0.0)
        assert BROADCAST_MAC not in cam

    def test_static_entries_pin(self):
        cam = CamTable(aging=1.0)
        cam.add_static(M1, 7, now=0.0)
        assert cam.lookup(M1, now=1000.0) == 7
        cam.learn(M1, 3, now=0.0)  # dynamic learn cannot move a static
        assert cam.lookup(M1, now=0.0) == 7

    def test_utilization(self):
        cam = CamTable(capacity=4)
        cam.learn(M1, 1, now=0.0)
        assert cam.utilization() == pytest.approx(0.25)

    def test_entries_on_port(self):
        cam = CamTable()
        cam.learn(M1, 1, now=0.0)
        cam.learn(M2, 1, now=0.0)
        cam.learn(M3, 2, now=0.0)
        assert len(cam.entries_on_port(1)) == 2

    def test_flush(self):
        cam = CamTable()
        cam.learn(M1, 1, now=0.0)
        cam.flush()
        assert len(cam) == 0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            CamTable(capacity=0)
        with pytest.raises(ValueError):
            CamTable(aging=0)


class TestLinksAndPorts:
    def test_frames_cross_a_link(self, sim):
        a, b = Sink(sim, "a"), Sink(sim, "b")
        Link(sim, a.port, b.port)
        a.send(frame(M1, M2))
        sim.run()
        assert len(b.received) == 1

    def test_link_latency_delays_delivery(self, sim):
        a, b = Sink(sim, "a"), Sink(sim, "b")
        Link(sim, a.port, b.port, latency=1.0)
        a.send(frame(M1, M2))
        sim.run()
        assert sim.now >= 1.0

    def test_double_attach_rejected(self, sim):
        a, b, c = Sink(sim, "a"), Sink(sim, "b"), Sink(sim, "c")
        Link(sim, a.port, b.port)
        with pytest.raises(PortError):
            Link(sim, a.port, c.port)

    def test_self_link_rejected(self, sim):
        a = Sink(sim, "a")
        with pytest.raises(TopologyError):
            Link(sim, a.port, a.port)

    def test_down_port_drops_tx_and_rx(self, sim):
        a, b = Sink(sim, "a"), Sink(sim, "b")
        Link(sim, a.port, b.port)
        b.port.shut()
        a.send(frame(M1, M2))
        sim.run()
        assert b.received == []
        b.port.no_shut()
        a.send(frame(M1, M2))
        sim.run()
        assert len(b.received) == 1

    def test_disconnect(self, sim):
        a, b = Sink(sim, "a"), Sink(sim, "b")
        link = Link(sim, a.port, b.port)
        link.disconnect()
        a.send(frame(M1, M2))
        sim.run()
        assert b.received == []

    def test_counters(self, sim):
        a, b = Sink(sim, "a"), Sink(sim, "b")
        Link(sim, a.port, b.port)
        a.send(frame(M1, M2))
        sim.run()
        assert a.port.tx_frames == 1
        assert b.port.rx_frames == 1
        assert b.port.rx_bytes == a.port.tx_bytes


def build_switched(sim, n=3, **switch_kwargs):
    switch = Switch(sim, "sw", num_ports=8, **switch_kwargs)
    sinks = []
    for i in range(n):
        sink = Sink(sim, f"h{i}")
        Link(sim, sink.port, switch.ports[i])
        sinks.append(sink)
    return switch, sinks


class TestSwitch:
    def test_unknown_unicast_floods(self, sim):
        switch, (a, b, c) = build_switched(sim)
        a.send(frame(M1, M2))
        sim.run()
        assert len(b.received) == 1 and len(c.received) == 1

    def test_learned_unicast_forwards_only_to_owner(self, sim):
        switch, (a, b, c) = build_switched(sim)
        b.send(frame(M2, BROADCAST_MAC))  # teach the switch where M2 is
        sim.run()
        a.send(frame(M1, M2))
        sim.run()
        assert len(b.received) == 1
        assert all(EthernetFrame.decode(r).src != M1 for r in c.received)

    def test_broadcast_goes_everywhere_except_ingress(self, sim):
        switch, (a, b, c) = build_switched(sim)
        a.send(frame(M1, BROADCAST_MAC))
        sim.run()
        assert len(b.received) == 1 and len(c.received) == 1
        assert a.received == []

    def test_hairpin_suppressed(self, sim):
        switch, (a, b, c) = build_switched(sim)
        a.send(frame(M1, BROADCAST_MAC))
        sim.run()
        a.send(frame(M3, M1))  # destination lives on the sender's own port
        sim.run()
        assert a.received == []

    def test_cam_fill_causes_fail_open_flooding(self, sim):
        switch, (a, b, c) = build_switched(sim, cam_capacity=2)
        a.send(frame(M1, BROADCAST_MAC))
        b.send(frame(M2, BROADCAST_MAC))
        sim.run()
        assert switch.is_fail_open()
        # A new station cannot be learned; traffic to it floods.
        c.send(frame(M3, BROADCAST_MAC))
        sim.run()
        a.send(frame(M1, M3))
        sim.run()
        # b received the flood copy even though the frame was for M3/c.
        assert any(EthernetFrame.decode(r).dst == M3 for r in b.received)

    def test_mirror_port_sees_other_traffic(self, sim):
        switch, (a, b, c) = build_switched(sim)
        switch.mirror_all_to(2)  # c is the monitor
        a.send(frame(M1, M2))
        sim.run()
        assert any(EthernetFrame.decode(r).src == M1 for r in c.received)

    def test_mirror_target_not_flooded_twice(self, sim):
        switch, (a, b, c) = build_switched(sim)
        switch.mirror_all_to(2)
        a.send(frame(M1, BROADCAST_MAC))
        sim.run()
        assert len(c.received) == 1  # one mirror copy, not mirror+flood

    def test_mirror_config_validation(self, sim):
        switch, _ = build_switched(sim)
        with pytest.raises(TopologyError):
            switch.set_mirror([1, 2], 2)
        with pytest.raises(TopologyError):
            switch.set_mirror([99], 1)

    def test_ingress_filter_drops(self, sim):
        switch, (a, b, c) = build_switched(sim)
        switch.add_ingress_filter(lambda port, fr: fr.src != M1)
        a.send(frame(M1, BROADCAST_MAC))
        sim.run()
        assert b.received == []
        assert switch.dropped_frames == 1

    def test_ingress_filter_removal(self, sim):
        switch, (a, b, c) = build_switched(sim)
        remove = switch.add_ingress_filter(lambda port, fr: False)
        remove()
        a.send(frame(M1, BROADCAST_MAC))
        sim.run()
        assert len(b.received) == 1

    def test_dropped_frames_still_mirrored(self, sim):
        """Monitors must see attack frames the switch refuses to forward."""
        switch, (a, b, c) = build_switched(sim)
        switch.mirror_all_to(2)
        switch.add_ingress_filter(lambda port, fr: fr.src != M1)
        a.send(frame(M1, M2))
        sim.run()
        assert b.received == []
        assert len(c.received) == 1

    def test_undecodable_frames_counted(self, sim):
        switch, (a, b, c) = build_switched(sim)
        a.port.transmit_batch((b"\x01\x02\x03",))
        sim.run()
        assert switch.undecodable_frames == 1

    def test_needs_two_ports(self, sim):
        with pytest.raises(TopologyError):
            Switch(sim, "tiny", num_ports=1)


class TestHub:
    def test_repeats_to_all_other_ports(self, sim):
        hub = Hub(sim, "hub", num_ports=4)
        sinks = []
        for i in range(3):
            sink = Sink(sim, f"h{i}")
            Link(sim, sink.port, hub.ports[i])
            sinks.append(sink)
        sinks[0].send(frame(M1, M2))
        sim.run()
        assert len(sinks[1].received) == 1
        assert len(sinks[2].received) == 1
        assert sinks[0].received == []

    def test_needs_two_ports(self, sim):
        with pytest.raises(TopologyError):
            Hub(sim, "tiny", num_ports=1)

    def test_floods_only_live_ports(self, sim, monkeypatch):
        """A broadcast into an 8-port hub with two cabled ports leaves by
        the one other cabled port: one transmit call, not seven."""
        hub = Hub(sim, "hub", num_ports=8)
        a, b = Sink(sim, "a"), Sink(sim, "b")
        Link(sim, a.port, hub.ports[0])
        Link(sim, b.port, hub.ports[5])
        transmits = Counter()
        transmit = Port.transmit_batch

        def counting(port, datas):
            if port.device is hub:
                transmits[port.index] += 1
            transmit(port, datas)

        monkeypatch.setattr(Port, "transmit_batch", counting)
        a.send(frame(M1, BROADCAST_MAC))
        sim.run()
        assert transmits == {5: 1}
        assert len(b.received) == 1 and a.received == []


class TestFloodEgress:
    """Floods walk the switch's cabled ports only: a 64-port switch with
    three stations makes two egress calls per broadcast, not 62."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """Counts of the transmit and carry calls a switch port makes."""
        counts = Counter()

        def counting(cls, name, sender_of):
            method = getattr(cls, name)

            def wrapper(self, *args):
                if isinstance(sender_of(self, args).device, Switch):
                    counts[f"{cls.__name__}.{name}"] += 1
                return method(self, *args)

            monkeypatch.setattr(cls, name, wrapper)

        counting(Port, "transmit_batch", lambda port, args: port)
        counting(Link, "carry_batch", lambda link, args: args[0])
        return counts

    @staticmethod
    def build(sim, n=3):
        switch = Switch(sim, "sw", num_ports=64)
        sinks = [Sink(sim, f"h{i}") for i in range(n)]
        for i, sink in enumerate(sinks):
            Link(sim, sink.port, switch.ports[i])
        return switch, sinks

    def test_batched_flood(self, sim, calls):
        switch, (a, b, c) = self.build(sim)
        reuses = PERF.flood_buffer_reuses
        a.send(frame(M1, BROADCAST_MAC))
        sim.run()
        assert calls == {"Port.transmit_batch": 2, "Link.carry_batch": 2}
        assert len(b.received) == len(c.received) == 1
        assert PERF.flood_buffer_reuses - reuses == 2  # one re-send per copy

    def test_per_frame_flood(self, sim, calls):
        switch, (a, b, c) = self.build(sim)
        switch.add_ingress_filter(lambda port, fr: True)
        reuses = PERF.flood_buffer_reuses
        a.send(frame(M1, BROADCAST_MAC))
        sim.run()
        assert calls == {"Port.transmit_batch": 2, "Link.carry_batch": 2}
        assert len(b.received) == len(c.received) == 1
        assert PERF.flood_buffer_reuses - reuses == 2

    @pytest.mark.parametrize("vid", [1, 10])
    def test_vlan_flood(self, sim, calls, vid):
        switch, (a, b, c) = self.build(sim)
        for index in range(3):
            switch.set_access_port(index, vid)
        reuses = PERF.flood_buffer_reuses
        a.send(frame(M1, BROADCAST_MAC))
        sim.run()
        assert calls == {"Port.transmit_batch": 2, "Link.carry_batch": 2}
        assert len(b.received) == len(c.received) == 1
        # One encode, sent twice: one re-send, whatever the 61
        # uncabled ports would carry.
        assert PERF.flood_buffer_reuses - reuses == 1

    @pytest.mark.parametrize("batching", [True, False])
    def test_host_cabled_after_a_flood_gets_the_next(self, calls, batching):
        sim = Simulator(seed=42, batching=batching)
        switch, (a, b, c) = self.build(sim)
        a.send(frame(M1, BROADCAST_MAC))
        sim.run()
        late = Sink(sim, "late")
        Link(sim, late.port, switch.ports[40])
        a.send(frame(M1, BROADCAST_MAC))
        sim.run()
        assert len(late.received) == 1
        assert len(b.received) == len(c.received) == 2

    @pytest.mark.parametrize("batching", [True, False])
    def test_disconnected_link_gets_nothing(self, calls, batching):
        sim = Simulator(seed=42, batching=batching)
        switch, (a, b, c) = self.build(sim)
        a.send(frame(M1, BROADCAST_MAC))
        sim.run()
        c.port.link.disconnect()
        a.send(frame(M1, BROADCAST_MAC))
        sim.run()
        assert len(b.received) == 2
        assert len(c.received) == 1
        assert sum(calls.values()) == 6  # 2 + 2 for the first flood, 1 + 1 now

    @pytest.mark.parametrize("batching", [True, False])
    def test_shut_port_gets_nothing_until_no_shut(self, calls, batching):
        sim = Simulator(seed=42, batching=batching)
        switch, (a, b, c) = self.build(sim)
        switch.ports[2].shut()
        reuses = PERF.flood_buffer_reuses
        a.send(frame(M1, BROADCAST_MAC))
        sim.run()
        assert (len(b.received), len(c.received)) == (1, 0)
        assert sum(calls.values()) == 2
        assert PERF.flood_buffer_reuses - reuses == 1
        switch.ports[2].no_shut()
        a.send(frame(M1, BROADCAST_MAC))
        sim.run()
        assert (len(b.received), len(c.received)) == (2, 1)

    @pytest.mark.parametrize("batching", [True, False])
    def test_mirror_target_gets_one_copy(self, calls, batching):
        sim = Simulator(seed=42, batching=batching)
        switch, (a, b, c) = self.build(sim)
        switch.mirror_all_to(2)
        reuses = PERF.flood_buffer_reuses
        a.send(frame(M1, BROADCAST_MAC))
        sim.run()
        assert len(b.received) == len(c.received) == 1
        assert sum(calls.values()) == 4
        assert PERF.flood_buffer_reuses - reuses == 1  # not the mirror target
