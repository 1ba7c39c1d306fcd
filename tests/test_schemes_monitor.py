"""Tests for monitor-resident schemes: arpwatch, Snort, active probe, hybrid."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks.arp_poison import ArpPoisoner, PoisonTarget
from repro.errors import SchemeError
from repro.l2.topology import Lan
from repro.net.addresses import MacAddress
from repro.schemes.active_probe import ActiveProbe
from repro.schemes.arpwatch import ArpWatch
from repro.schemes.hybrid import HybridDetector
from repro.schemes.monitor_base import BindingDatabase
from repro.schemes.snort import SnortArpspoof
from repro.stack.dhcp_client import DhcpClient
from repro.stack.os_profiles import WINDOWS_XP


@pytest.fixture
def rig(sim):
    lan = Lan(sim)
    lan.add_monitor()
    victim = lan.add_host("victim", profile=WINDOWS_XP)
    peer = lan.add_host("peer")
    mallory = lan.add_host("mallory")
    protected = [victim, peer, lan.gateway, lan.monitor]
    return lan, victim, peer, mallory, protected


def poison(sim, mallory, victim, spoofed_ip, technique="reply", until=5.0):
    poisoner = ArpPoisoner(
        mallory,
        [
            PoisonTarget(
                victim_ip=victim.ip,
                victim_mac=victim.mac,
                spoofed_ip=spoofed_ip,
                claimed_mac=mallory.mac,
            )
        ],
        technique=technique,
    )
    poisoner.start()
    sim.run(until=until)
    poisoner.stop()
    return poisoner


def warm(sim, victim, peer):
    victim.resolve(peer.ip, on_resolved=lambda m: None)
    sim.run(until=1.0)


class TestBindingDatabase:
    def test_new_then_refresh(self):
        from repro.net.addresses import Ipv4Address

        db = BindingDatabase()
        ip = Ipv4Address("10.0.0.1")
        m1 = MacAddress("02:00:00:00:00:01")
        assert db.observe(ip, m1, 0.0) == ("new", None)
        assert db.observe(ip, m1, 1.0) == ("refresh", None)

    def test_change_then_flip_flop(self):
        from repro.net.addresses import Ipv4Address

        db = BindingDatabase()
        ip = Ipv4Address("10.0.0.1")
        m1 = MacAddress("02:00:00:00:00:01")
        m2 = MacAddress("02:00:00:00:00:02")
        db.observe(ip, m1, 0.0)
        assert db.observe(ip, m2, 1.0) == ("changed", m1)
        assert db.observe(ip, m1, 2.0) == ("flip-flop", m2)

    def test_rebind_sequence_events_and_distinct_history(self):
        from repro.net.addresses import Ipv4Address

        db = BindingDatabase()
        ip = Ipv4Address("10.0.0.1")
        a, b, c = (MacAddress(f"02:00:00:00:00:0{i}") for i in (1, 2, 3))
        events = [db.observe(ip, mac, float(t)) for t, mac in enumerate([a, b, a, c, b, c, a])]
        assert events == [
            ("new", None),
            ("changed", a),
            ("flip-flop", b),
            ("changed", a),
            ("flip-flop", c),
            ("flip-flop", b),
            ("flip-flop", c),
        ]
        station = db.get(ip)
        assert station.mac == a
        # Each earlier MAC once, in first-seen order, however often it
        # came back.
        assert list(station.previous_macs) == [a, b, c]

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=40))
    def test_flip_flop_iff_any_earlier_mac(self, picks):
        """Events match a full-history reference model: ``flip-flop``
        exactly when the new MAC is any MAC held before the current one."""
        from repro.net.addresses import Ipv4Address

        db = BindingDatabase()
        ip = Ipv4Address("10.0.0.1")
        history = []  # every MAC held before the current one, in order
        current = None
        for t, pick in enumerate(picks):
            mac = MacAddress(f"02:00:00:00:00:0{pick}")
            if current is None:
                expected = ("new", None)
            elif mac == current:
                expected = ("refresh", None)
            else:
                kind = "flip-flop" if mac in history else "changed"
                expected = (kind, current)
                history.append(current)
            if mac != current:
                current = mac
            assert db.observe(ip, mac, float(t)) == expected
        assert list(db.get(ip).previous_macs) == list(dict.fromkeys(history))

    def test_forget(self):
        from repro.net.addresses import Ipv4Address

        db = BindingDatabase()
        ip = Ipv4Address("10.0.0.1")
        db.observe(ip, MacAddress("02:00:00:00:00:01"), 0.0)
        db.forget(ip)
        assert ip not in db


class TestMonitorRequirement:
    def test_monitor_required(self, sim):
        lan = Lan(sim)  # no monitor
        with pytest.raises(SchemeError):
            ArpWatch().install(lan)


class TestArpWatch:
    def test_reports_new_stations(self, sim, rig):
        lan, victim, peer, mallory, protected = rig
        scheme = ArpWatch()
        scheme.install(lan, protected=protected)
        warm(sim, victim, peer)
        infos = [a for a in scheme.alerts if a.kind == "new-station"]
        assert infos  # both sides of the exchange were new to the db

    def test_detects_rebinding(self, sim, rig):
        lan, victim, peer, mallory, protected = rig
        scheme = ArpWatch()
        scheme.install(lan, protected=protected)
        warm(sim, victim, peer)
        poison(sim, mallory, victim, peer.ip)
        changed = [a for a in scheme.alerts if a.kind == "changed-ethernet-address"]
        assert changed and changed[0].mac == mallory.mac

    def test_detects_flip_flop_when_truth_returns(self, sim, rig):
        lan, victim, peer, mallory, protected = rig
        scheme = ArpWatch()
        scheme.install(lan, protected=protected)
        warm(sim, victim, peer)
        poison(sim, mallory, victim, peer.ip, until=3.0)
        sim.run(until=65.0)  # outside the dedup window
        peer.announce()  # the real owner speaks again
        sim.run(until=66.0)
        assert any(a.kind == "flip-flop" for a in scheme.alerts)

    def test_cold_start_blind_spot(self, sim, rig):
        """An attack already running when arpwatch starts looks like truth."""
        lan, victim, peer, mallory, protected = rig
        poisoner = poison(sim, mallory, victim, peer.ip, until=3.0)
        scheme = ArpWatch()
        scheme.install(lan, protected=protected)
        poisoner.start()
        sim.run(until=8.0)
        poisoner.stop()
        # The poisoned binding was the *first* the monitor saw: no alarm.
        changed = [a for a in scheme.alerts
                   if a.kind == "changed-ethernet-address" and a.ip == peer.ip]
        assert changed == []

    def test_vendor_reported_for_known_oui(self, sim, rig):
        lan, victim, peer, mallory, protected = rig
        scheme = ArpWatch()
        scheme.install(lan, protected=protected)
        warm(sim, victim, peer)
        infos = [a for a in scheme.alerts if a.kind == "new-station"]
        assert any("(" in a.message for a in infos)


class TestSnortArpspoof:
    def test_mapping_violation_detected(self, sim, rig):
        lan, victim, peer, mallory, protected = rig
        scheme = SnortArpspoof()
        scheme.install(lan, protected=protected)
        poison(sim, mallory, victim, peer.ip)
        assert scheme.mapping_violations > 0
        assert any(a.kind == "arpspoof-mapping-violation" for a in scheme.alerts)

    def test_ether_arp_mismatch_detected(self, sim, rig):
        """A lazy forgery: frame source differs from the ARP sha."""
        lan, victim, peer, mallory, protected = rig
        scheme = SnortArpspoof()
        scheme.install(lan, protected=protected)
        from repro.packets.arp import ArpPacket
        from repro.packets.ethernet import EtherType, EthernetFrame

        arp = ArpPacket.reply(sha=peer.mac, spa=peer.ip, tha=victim.mac, tpa=victim.ip)
        mallory.transmit_frame(
            EthernetFrame(dst=victim.mac, src=mallory.mac,
                          ethertype=EtherType.ARP, payload=arp.encode())
        )
        sim.run(until=1.0)
        assert scheme.header_mismatches > 0

    def test_unicast_request_flagged(self, sim, rig):
        lan, victim, peer, mallory, protected = rig
        scheme = SnortArpspoof()
        scheme.install(lan, protected=protected)
        from repro.packets.arp import ArpPacket
        from repro.packets.ethernet import EtherType, EthernetFrame

        arp = ArpPacket.request(sha=mallory.mac, spa=mallory.ip, tpa=victim.ip)
        mallory.transmit_frame(
            EthernetFrame(dst=victim.mac, src=mallory.mac,
                          ethertype=EtherType.ARP, payload=arp.encode())
        )
        sim.run(until=1.0)
        assert scheme.unicast_requests > 0

    def test_unconfigured_addresses_unwatched(self, sim, rig):
        """Snort only checks the operator-supplied mappings."""
        lan, victim, peer, mallory, protected = rig
        scheme = SnortArpspoof(mappings={victim.ip: victim.mac})
        scheme.install(lan, protected=protected)
        warm(sim, victim, peer)
        poison(sim, mallory, victim, peer.ip)  # peer.ip not in the map
        assert scheme.mapping_violations == 0


class TestActiveProbe:
    def test_confirms_live_impersonation(self, sim, rig):
        lan, victim, peer, mallory, protected = rig
        scheme = ActiveProbe()
        scheme.install(lan, protected=protected)
        warm(sim, victim, peer)
        poison(sim, mallory, victim, peer.ip)
        assert scheme.confirmed_attacks >= 1
        assert any(a.kind == "verified-poisoning" and a.mac == mallory.mac
                   for a in scheme.alerts)

    def test_silent_on_genuine_nic_swap(self, sim, rig):
        lan, victim, peer, mallory, protected = rig
        scheme = ActiveProbe()
        scheme.install(lan, protected=protected)
        warm(sim, victim, peer)
        peer.mac = MacAddress("02:aa:bb:cc:dd:ee")  # old NIC gone for real
        peer.announce()
        sim.run(until=3.0)
        assert scheme.confirmed_attacks == 0
        assert scheme.benign_rebinds >= 1
        actionable = [a for a in scheme.alerts if a.severity != "info"]
        assert actionable == []

    def test_probe_traffic_counted(self, sim, rig):
        lan, victim, peer, mallory, protected = rig
        scheme = ActiveProbe()
        scheme.install(lan, protected=protected)
        warm(sim, victim, peer)
        poison(sim, mallory, victim, peer.ip)
        assert scheme.probes_sent >= 1
        assert scheme.messages_sent == scheme.probes_sent


class TestHybridDetector:
    def test_confirms_live_impersonation(self, sim, rig):
        lan, victim, peer, mallory, protected = rig
        scheme = HybridDetector()
        scheme.install(lan, protected=protected)
        warm(sim, victim, peer)
        poison(sim, mallory, victim, peer.ip)
        assert scheme.confirmed_attacks >= 1

    def test_dhcp_reassignment_explained_without_probe(self, sim):
        """The hybrid's whole point: DHCP churn costs neither alarms nor probes."""
        lan = Lan(sim, network="10.0.3.0/24")
        lan.add_monitor()
        lan.enable_dhcp(pool_start=100, pool_end=101)  # tiny pool
        scheme = HybridDetector()
        scheme.install(lan, protected=[lan.gateway, lan.monitor])
        first = lan.add_dhcp_host("first")
        c1 = DhcpClient(first)
        c1.start()
        sim.run(until=10.0)
        reused_ip = first.ip
        c1.release()
        first.nic.shut()
        sim.run(until=12.0)
        second = lan.add_dhcp_host("second")
        DhcpClient(second).start()
        sim.run(until=20.0)
        assert second.ip == reused_ip  # same IP, different MAC
        assert scheme.dhcp_explained >= 1
        actionable = [a for a in scheme.alerts if a.severity != "info"]
        assert actionable == []

    def test_reply_storm_heuristic(self, sim, rig):
        lan, victim, peer, mallory, protected = rig
        scheme = HybridDetector(storm_threshold=5, storm_window=10.0)
        scheme.install(lan, protected=protected)
        warm(sim, victim, peer)
        poison(sim, mallory, victim, peer.ip, until=10.0)
        assert any(a.kind == "arp-reply-storm" for a in scheme.alerts)

    def test_nic_swap_noted_as_info_only(self, sim, rig):
        lan, victim, peer, mallory, protected = rig
        scheme = HybridDetector()
        scheme.install(lan, protected=protected)
        warm(sim, victim, peer)
        peer.mac = MacAddress("02:aa:bb:cc:dd:ee")
        peer.announce()
        sim.run(until=3.0)
        assert scheme.benign_rebinds >= 1
        station_changed = [a for a in scheme.alerts if a.kind == "station-changed"]
        assert station_changed and all(a.severity == "info" for a in station_changed)

    def test_monitor_without_ip_runs_passive(self, sim):
        """No IP, no probe: the rebinding is alerted from the database."""
        lan = Lan(sim)
        lan.add_monitor(with_ip=False)
        victim = lan.add_host("victim", profile=WINDOWS_XP)
        peer = lan.add_host("peer")
        mallory = lan.add_host("mallory")
        scheme = HybridDetector()
        scheme.install(lan, protected=[victim, peer, lan.gateway])
        warm(sim, victim, peer)
        poison(sim, mallory, victim, peer.ip)
        assert scheme.probes_sent == 0 and scheme.confirmed_attacks == 0
        changed = [a for a in scheme.alerts if a.kind == "changed"]
        assert [(a.ip, a.mac) for a in changed] == [(peer.ip, mallory.mac)]
        assert scheme.unverified_rebinds >= 1

    def test_probe_budget_smaller_than_naive_active(self, sim):
        """Under pure DHCP churn the hybrid sends no probes at all."""
        lan = Lan(sim, network="10.0.3.0/24")
        lan.add_monitor()
        lan.enable_dhcp(pool_start=100, pool_end=101)
        hybrid = HybridDetector()
        hybrid.install(lan, protected=[lan.gateway, lan.monitor])
        first = lan.add_dhcp_host("first")
        c1 = DhcpClient(first)
        c1.start()
        sim.run(until=10.0)
        c1.release()
        first.nic.shut()
        second = lan.add_dhcp_host("second")
        DhcpClient(second).start()
        sim.run(until=20.0)
        assert hybrid.probes_sent == 0
