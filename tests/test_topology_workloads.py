"""Tests for the LAN builder and workload generators."""

from __future__ import annotations

import pytest

from repro.errors import TopologyError
from repro.l2.topology import Lan
from repro.net.addresses import Ipv4Address
from repro.workloads.benign import BenignTraffic, ChurnWorkload


class TestLanBuilder:
    def test_gateway_is_dot_one(self, lan):
        assert str(lan.gateway.ip).endswith(".1")
        assert lan.gateway.ip_forward

    def test_static_hosts_autonumber_from_ten(self, lan):
        a = lan.add_host("a")
        b = lan.add_host("b")
        assert str(a.ip).endswith(".10")
        assert str(b.ip).endswith(".11")

    def test_explicit_ip_forms(self, lan):
        by_index = lan.add_host("x", ip=42)
        by_string = lan.add_host("y", ip="192.168.88.43")
        assert str(by_index.ip).endswith(".42")
        assert str(by_string.ip).endswith(".43")

    def test_out_of_subnet_ip_rejected(self, lan):
        with pytest.raises(TopologyError):
            lan.add_host("z", ip="10.9.9.9")

    def test_duplicate_names_rejected(self, lan):
        lan.add_host("a")
        with pytest.raises(TopologyError):
            lan.add_host("a")

    def test_macs_unique(self, sim):
        lan = Lan(sim)
        macs = {lan.add_host(f"h{i}").mac for i in range(30)}
        assert len(macs) == 30

    def test_monitor_is_promiscuous_and_mirrored(self, lan):
        monitor = lan.add_monitor()
        assert monitor.promiscuous
        assert lan.monitor is monitor
        # traffic between two other hosts reaches the monitor
        a = lan.add_host("a")
        b = lan.add_host("b")
        seen = []
        monitor.frame_taps.add(lambda frame, raw: seen.append(frame))
        a.ping(b.ip)
        lan.sim.run(until=2.0)
        assert any(f.src == a.mac for f in seen)

    def test_single_monitor(self, lan):
        lan.add_monitor()
        with pytest.raises(TopologyError):
            lan.add_monitor()

    def test_true_bindings_cover_addressed_hosts(self, lan):
        a = lan.add_host("a")
        lan.add_dhcp_host("pending")  # no IP yet
        bindings = lan.true_bindings()
        assert bindings[a.ip] == a.mac
        assert len(bindings) == 2  # gateway + a

    def test_port_of(self, lan):
        a = lan.add_host("a")
        assert lan.port_of("a") == 1  # gateway took port 0

    def test_unknown_host_lookup(self, lan):
        with pytest.raises(TopologyError):
            lan.host("nobody")

    def test_enable_dhcp_once(self, sim):
        lan = Lan(sim, network="10.0.3.0/24")
        lan.enable_dhcp()
        with pytest.raises(TopologyError):
            lan.enable_dhcp()

    def test_switch_port_exhaustion(self, sim):
        lan = Lan(sim, switch_ports=3)  # gateway takes one
        lan.add_host("a")
        lan.add_host("b")
        with pytest.raises(TopologyError):
            lan.add_host("c")


class TestBenignTraffic:
    def test_generates_pings_and_replies(self, sim):
        lan = Lan(sim)
        for i in range(4):
            lan.add_host(f"h{i}")
        traffic = BenignTraffic(lan, rate_per_host=2.0, wan_fraction=0.0)
        traffic.start()
        sim.run(until=10.0)
        traffic.stop()
        assert traffic.pings_sent > 10
        assert traffic.replies_received > 0
        assert traffic.loss_fraction < 0.3

    def test_stop_stops(self, sim):
        lan = Lan(sim)
        lan.add_host("a")
        lan.add_host("b")
        traffic = BenignTraffic(lan, rate_per_host=2.0)
        traffic.start()
        sim.run(until=3.0)
        traffic.stop()
        sent = traffic.pings_sent
        sim.run(until=10.0)
        assert traffic.pings_sent == sent

    def test_wan_traffic_flows(self, sim):
        lan = Lan(sim)
        lan.add_host("a")
        traffic = BenignTraffic(lan, rate_per_host=2.0, wan_fraction=1.0)
        traffic.start()
        sim.run(until=5.0)
        traffic.stop()
        assert lan.gateway.wan_tx > 0


class TestChurnWorkload:
    def test_joins_create_bound_hosts(self, sim):
        lan = Lan(sim, network="10.0.3.0/24")
        lan.enable_dhcp()
        churn = ChurnWorkload(lan, join_rate=1 / 5.0, nic_swap_rate=0,
                              reannounce_rate=0)
        churn.start()
        sim.run(until=30.0)
        churn.stop()
        counts = churn.event_counts()
        assert counts.get("dhcp-join", 0) >= 4
        joined = [h for name, h in lan.hosts.items() if name.startswith("churn-")]
        assert any(h.ip is not None for h in joined)

    def test_join_cycles_to_leaves_at_cap(self, sim):
        lan = Lan(sim, network="10.0.3.0/24")
        lan.enable_dhcp()
        churn = ChurnWorkload(lan, join_rate=1 / 2.0, nic_swap_rate=0,
                              reannounce_rate=0, max_dhcp_hosts=3)
        churn.start()
        sim.run(until=30.0)
        churn.stop()
        assert churn.event_counts().get("dhcp-leave", 0) >= 1

    def test_nic_swap_changes_mac(self, sim):
        lan = Lan(sim, network="10.0.3.0/24")
        lan.enable_dhcp()
        host = lan.add_host("stat")
        before = host.mac
        churn = ChurnWorkload(lan, join_rate=0, nic_swap_rate=1 / 3.0,
                              reannounce_rate=0)
        churn.start()
        sim.run(until=10.0)
        churn.stop()
        assert churn.event_counts().get("nic-swap", 0) >= 2
        assert host.mac != before

    def test_requires_dhcp_when_joining(self, sim):
        lan = Lan(sim)
        with pytest.raises(ValueError):
            ChurnWorkload(lan, join_rate=1.0)

    def test_events_logged_with_time(self, sim):
        lan = Lan(sim, network="10.0.3.0/24")
        lan.enable_dhcp()
        churn = ChurnWorkload(lan, join_rate=1 / 5.0, nic_swap_rate=0,
                              reannounce_rate=0)
        churn.start()
        sim.run(until=12.0)
        churn.stop()
        assert all(e.time > 0 for e in churn.events)
