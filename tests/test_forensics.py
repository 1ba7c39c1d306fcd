"""Tests for ``repro analyze``: the passive schemes replayed over a capture."""

from __future__ import annotations

import pytest

from repro.attacks.mitm import MitmAttack
from repro.l2.topology import Lan
from repro.replay import MemorySource
from repro.replay.analyze import analyze
from repro.sim.trace import TraceRecorder
from repro.stack.dhcp_client import DhcpClient
from repro.stack.os_profiles import WINDOWS_XP


@pytest.fixture
def captured_attack(sim):
    """Run an attack behind a mirror port and hand back the capture."""
    lan = Lan(sim)
    monitor = lan.add_monitor()
    monitor.recorder = TraceRecorder()
    victim = lan.add_host("victim", profile=WINDOWS_XP)
    mallory = lan.add_host("mallory")
    victim.ping(lan.gateway.ip)
    sim.run(until=3.0)
    mitm = MitmAttack(mallory, victim, lan.gateway)
    mitm.start()
    cancel = sim.call_every(0.5, lambda: victim.ping(lan.gateway.ip))
    sim.run(until=20.0)
    mitm.stop()
    cancel()
    return lan, victim, mallory, monitor.recorder.records


def replay(records, **options):
    return analyze(MemorySource.from_records(records), **options)


class TestOfflineAnalysis:
    def test_attack_capture_yields_rebindings(self, sim, captured_attack):
        lan, victim, mallory, records = captured_attack
        report = replay(records)
        assert report.frames > 50
        assert report.arp_packets > 10
        assert report.rebindings > 0
        changed = report.of("changed") + report.of("flip-flop")
        assert any(a.mac == mallory.mac for a in changed)

    def test_reply_storm_detected(self, sim, captured_attack):
        lan, victim, mallory, records = captured_attack
        report = replay(records, storm_threshold=8, storm_window=15.0)
        storms = report.of("arp-reply-storm")
        assert storms and storms[0].mac == mallory.mac

    def test_known_binding_violation(self, sim, captured_attack):
        lan, victim, mallory, records = captured_attack
        report = replay(records, inventory=lan.true_bindings())
        violations = report.of("arpspoof-mapping-violation")
        assert violations
        assert all(a.mac == mallory.mac for a in violations)

    def test_clean_capture_is_quiet(self, sim):
        lan = Lan(sim)
        monitor = lan.add_monitor()
        monitor.recorder = TraceRecorder()
        a = lan.add_host("a")
        b = lan.add_host("b")
        a.ping(b.ip)
        b.ping(lan.gateway.ip)
        sim.run(until=5.0)
        report = replay(monitor.recorder.records, inventory=lan.true_bindings())
        assert report.arp_packets > 0
        assert report.alerts == []

    def test_dhcp_reassignment_explained(self, sim):
        lan = Lan(sim, network="10.0.3.0/24")
        monitor = lan.add_monitor()
        monitor.recorder = TraceRecorder()
        lan.enable_dhcp(pool_start=100, pool_end=100)  # single-address pool
        first = lan.add_dhcp_host("first")
        c1 = DhcpClient(first)
        c1.start()
        sim.run(until=10.0)
        c1.release()
        first.nic.shut()
        sim.run(until=12.0)
        second = lan.add_dhcp_host("second")
        DhcpClient(second).start()
        sim.run(until=20.0)
        report = replay(monitor.recorder.records)
        assert report.dhcp_messages > 0
        assert report.dhcp_explained > 0
        assert not report.of("changed")

    def test_reversed_capture_reports_skew(self, sim, captured_attack):
        """Replay streams in capture order and clamps, it does not sort."""
        lan, victim, mallory, records = captured_attack
        report = replay(list(reversed(records)))
        assert report.skew > 0
        assert f"out of order: {report.skew}" in report.render()
        assert report.rebindings > 0

    def test_summary_counters(self, sim, captured_attack):
        lan, victim, mallory, records = captured_attack
        report = replay(records)
        assert report.arp_requests + report.arp_replies == report.arp_packets
        assert report.stations >= 2
        assert str(report.alerts[0])  # findings render
        assert "findings:\n  " in report.render()
