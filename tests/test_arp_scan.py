"""Tests for ARP-scan reconnaissance and its detection."""

from __future__ import annotations

import pytest

from repro.attacks.arp_scan import ArpScan
from repro.errors import AttackError
from repro.l2.topology import Lan
from repro.replay import MemorySource
from repro.replay.analyze import analyze
from repro.schemes.hybrid import HybridDetector
from repro.sim.simulator import Simulator
from repro.sim.trace import TraceRecorder


@pytest.fixture
def scan_lan(sim):
    lan = Lan(sim, network="192.168.88.0/26")  # /26: 62 hosts to sweep
    lan.add_monitor().recorder = TraceRecorder()
    hosts = [lan.add_host(f"h{i}") for i in range(5)]
    mallory = lan.add_host("mallory")
    return lan, hosts, mallory


class TestArpScan:
    def test_discovers_every_live_host(self, sim, scan_lan):
        lan, hosts, mallory = scan_lan
        scan = ArpScan(mallory, rate_per_second=100)
        scan.start()
        sim.run(until=10.0)
        # gateway + monitor + 5 hosts are alive and answering.
        assert len(scan.discovered) == 7
        for host in hosts:
            assert scan.discovered[host.ip] == host.mac
        assert scan.discovered[lan.gateway.ip] == lan.gateway.mac

    def test_sweep_covers_whole_subnet(self, sim, scan_lan):
        lan, hosts, mallory = scan_lan
        scan = ArpScan(mallory, rate_per_second=200)
        scan.start()
        sim.run(until=10.0)
        assert scan.frames_sent == lan.network.num_hosts - 1  # minus self

    def test_scan_self_terminates(self, sim, scan_lan):
        lan, hosts, mallory = scan_lan
        scan = ArpScan(mallory, rate_per_second=200)
        scan.start()
        sim.run(until=10.0)
        assert not scan.active
        assert scan.complete

    def test_stealth_mode_is_slow(self, sim, scan_lan):
        lan, hosts, mallory = scan_lan
        scan = ArpScan(mallory, stealth=True, stealth_interval=1.0)
        scan.start()
        sim.run(until=10.0)
        scan.stop()
        assert scan.frames_sent <= 11  # ~1/s, not the whole /26

    def test_requires_subnet_knowledge(self, sim):
        from repro.net.addresses import MacAddress
        from repro.stack.host import Host

        nomad = Host(sim, "nomad", mac=MacAddress("02:00:00:00:00:77"))
        with pytest.raises(AttackError):
            ArpScan(nomad)


class TestScanDetection:
    def test_hybrid_flags_fast_scan(self, sim, scan_lan):
        lan, hosts, mallory = scan_lan
        detector = HybridDetector(scan_threshold=16, scan_window=10.0)
        detector.install(lan, protected=hosts + [lan.gateway, lan.monitor])
        scan = ArpScan(mallory, rate_per_second=100)
        scan.start()
        sim.run(until=10.0)
        scans = [a for a in detector.alerts if a.kind == "arp-scan"]
        assert scans and scans[0].mac == mallory.mac

    def test_stealth_scan_evades_rate_heuristic(self, sim, scan_lan):
        """The trade-off scan detectors make: slow sweeps slip under."""
        lan, hosts, mallory = scan_lan
        detector = HybridDetector(scan_threshold=16, scan_window=10.0)
        detector.install(lan, protected=hosts + [lan.gateway, lan.monitor])
        scan = ArpScan(mallory, stealth=True, stealth_interval=2.0)
        scan.start()
        sim.run(until=30.0)
        scan.stop()
        assert [a for a in detector.alerts if a.kind == "arp-scan"] == []

    def test_normal_traffic_not_flagged(self, sim, scan_lan):
        lan, hosts, mallory = scan_lan
        detector = HybridDetector()
        detector.install(lan, protected=hosts + [lan.gateway, lan.monitor])
        for host in hosts:
            host.ping(lan.gateway.ip)
        sim.run(until=10.0)
        assert [a for a in detector.alerts if a.kind == "arp-scan"] == []

    def test_offline_analyzer_finds_scan(self, sim, scan_lan):
        lan, hosts, mallory = scan_lan
        scan = ArpScan(mallory, rate_per_second=100)
        scan.start()
        sim.run(until=10.0)
        report = analyze(MemorySource.from_records(lan.monitor.recorder.records))
        findings = report.of("arp-scan")
        assert findings and findings[0].mac == mallory.mac
