"""The Campus spine-leaf builder and the sharded-equivalence acceptance run.

Covers: topology shape and determinism, O(1) port allocation (with the
linear-build regression timer), monitor/scheme installation at campus
scale, and the ISSUE-9 acceptance scenario — a fixed-seed poisoning run
sharded across >= 4 partitions yields the identical alert stream and
merged metric totals as the unsharded run.
"""

from __future__ import annotations

import time

import pytest

from repro.errors import TopologyError
from repro.l2.topology import Campus, Lan, PortAllocator
from repro.net.addresses import BROADCAST_MAC
from repro.obs.registry import REGISTRY
from repro.packets.arp import ArpPacket
from repro.perf import PERF
from repro.schemes import make_defense
from repro.sim import ShardedSimulator, Simulator


class TestPortAllocator:
    def test_sequential_like_the_old_counter(self):
        alloc = PortAllocator("s", 4)
        assert [alloc.take() for _ in range(4)] == [0, 1, 2, 3]
        with pytest.raises(TopologyError, match="out of ports"):
            alloc.take()

    def test_release_enables_reuse(self):
        alloc = PortAllocator("s", 2)
        a = alloc.take()
        assert alloc.take() == 1
        alloc.release(a)
        assert alloc.available() == 1
        assert alloc.take() == a
        with pytest.raises(TopologyError):
            alloc.take()

    def test_release_validates_index(self):
        alloc = PortAllocator("s", 4)
        with pytest.raises(TopologyError, match="never allocated"):
            alloc.release(0)

    def test_lan_still_allocates_sequentially(self):
        lan = Lan(Simulator(seed=1))
        # Gateway took port 0; hosts continue from 1.
        assert lan.port_of("gateway") == 0
        h = lan.add_host("h1")
        assert lan.port_of(h.name) == 1

    def test_lan_build_time_is_linear(self):
        """The satellite-1 regression gate: 4x the hosts must cost far
        less than the 16x an O(n^2) build would (generous 10x ceiling
        absorbs CI noise; an accidental quadratic scan lands at ~16x)."""
        import gc

        def build(n: int) -> float:
            sim = Simulator(seed=5)
            lan = Lan(sim, network="10.44.0.0/16", switch_ports=n + 8)
            # Collector passes scan the whole process heap, so their cost
            # grows with everything the test session has imported — pause
            # them so the gate measures add_host's complexity, not GC.
            gc.collect()
            gc.disable()
            try:
                start = time.perf_counter()
                for i in range(n):
                    lan.add_host(f"h{i}")
                return time.perf_counter() - start
            finally:
                gc.enable()

        build(50)  # warm caches/imports outside the measurement
        small = max(build(250), 1e-4)
        big = build(1000)
        assert big / small < 10.0, (
            f"4x hosts cost {big / small:.1f}x time — add_host is "
            f"super-linear again ({small:.4f}s -> {big:.4f}s)"
        )


class TestCampusBuilder:
    def test_shape(self):
        campus = Campus(
            Simulator(seed=7), buildings=3, leaves_per_building=2, hosts_per_leaf=5
        )
        assert campus.total_hosts == 30
        assert len(campus.hosts) == 30
        assert len(campus.switches) == 1 + 6  # spine + leaves
        assert not campus.sharded
        assert set(campus.attachment_of) == set(campus.hosts)

    def test_sharded_builds_partition_per_building_plus_spine(self):
        fabric = ShardedSimulator(seed=7)
        campus = Campus(
            fabric, buildings=3, leaves_per_building=2, hosts_per_leaf=5
        )
        assert campus.sharded
        assert set(fabric.partitions) == {"spine", "b0", "b1", "b2"}
        assert len(fabric.boundaries) == 6  # one uplink per leaf
        # Lookahead floor is the spine uplink latency.
        assert fabric.lookahead == campus.spine_latency

    def test_addressing_is_deterministic_and_position_derived(self):
        def build():
            return Campus(
                Simulator(seed=1), buildings=2, leaves_per_building=2,
                hosts_per_leaf=3,
            )

        one, two = build(), build()
        assert {n: str(h.mac) for n, h in one.hosts.items()} == {
            n: str(h.mac) for n, h in two.hosts.items()
        }
        assert {n: str(h.ip) for n, h in one.hosts.items()} == {
            n: str(h.ip) for n, h in two.hosts.items()
        }
        macs = {str(h.mac) for h in one.hosts.values()}
        assert len(macs) == len(one.hosts)  # unique
        assert all(m.startswith("02:") for m in macs)  # locally administered

    def test_network_capacity_validated(self):
        with pytest.raises(TopologyError, match="cannot address"):
            Campus(
                Simulator(), network="10.0.0.0/24",
                buildings=4, leaves_per_building=4, hosts_per_leaf=24,
            )

    def test_monitor_install_and_scheme_duck_typing(self):
        campus = Campus(
            Simulator(seed=3), buildings=2, leaves_per_building=1,
            hosts_per_leaf=4,
        )
        monitor = campus.add_monitor()
        assert monitor.promiscuous
        assert campus.monitor is monitor
        with pytest.raises(TopologyError, match="already attached"):
            campus.add_monitor()
        scheme = make_defense("arpwatch")
        scheme.install(campus)  # Lan duck-typing: hosts/monitor suffice
        assert scheme.installed

    def test_true_bindings_cover_every_host(self):
        campus = Campus(
            Simulator(seed=3), buildings=2, leaves_per_building=1,
            hosts_per_leaf=3,
        )
        bindings = campus.true_bindings()
        assert len(bindings) == 6
        h = campus.host("b1l0h2")
        assert bindings[h.ip] == h.mac

    def test_10k_host_build_smoke(self):
        start = time.perf_counter()
        campus = Campus(
            Simulator(seed=7), buildings=10, leaves_per_building=10,
            hosts_per_leaf=100,
        )
        elapsed = time.perf_counter() - start
        assert campus.total_hosts == 10_000
        assert len(campus.hosts) == 10_000
        # O(1) allocation keeps even 10k hosts in interactive time; an
        # O(n^2) build takes minutes.
        assert elapsed < 60.0


def _acceptance_run(fabric):
    """Fixed-seed cross-building poisoning under an arpwatch monitor.

    4 buildings (+ spine = 5 partitions when sharded): the victim lives
    on the monitored leaf in b0, the attacker in b1 broadcasts forged
    claims of the victim's IP, benign cross-building pings provide churn.
    Returns (alert tuples, scheme) — the full comparable surface.
    """
    campus = Campus(
        fabric, buildings=4, leaves_per_building=1, hosts_per_leaf=4
    )
    campus.add_monitor(building=0, leaf=0)
    scheme = make_defense("arpwatch")
    scheme.install(campus)

    victim = campus.host("b0l0h0")
    attacker = campus.host("b1l0h0")
    sims = {h.name: h.sim for h in campus.hosts.values()}

    sims[victim.name].schedule_at(0.1, victim.announce, name="victim.announce")
    for i, (src, dst) in enumerate(
        [("b0l0h1", "b2l0h2"), ("b3l0h3", "b0l0h2"), ("b2l0h1", "b1l0h3")]
    ):
        src_host, dst_host = campus.host(src), campus.host(dst)
        sims[src].schedule_at(
            0.2 + 0.05 * i,
            lambda s=src_host, d=dst_host: s.ping(d.ip),
            name="benign.ping",
        )
    for k in range(3):
        sims[attacker.name].schedule_at(
            0.5 + 0.2 * k,
            lambda a=attacker, v=victim: a.send_arp(
                ArpPacket.gratuitous(a.mac, v.ip), dst_mac=BROADCAST_MAC
            ),
            name="attack.poison",
        )

    fabric.run(until=2.0)
    alerts = [
        (a.time, a.kind, a.severity, str(a.ip), str(a.mac), a.message)
        for a in scheme.alerts
    ]
    return alerts, scheme


class TestAcceptanceShardedEquivalence:
    def test_four_plus_partition_run_matches_unsharded(self):
        REGISTRY.reset()
        perf_before = REGISTRY.snapshot()
        plain_alerts, _ = _acceptance_run(Simulator(seed=7))
        plain_perf = _perf_delta(perf_before)

        fabric = ShardedSimulator(seed=7)
        perf_before = REGISTRY.snapshot()
        sharded_alerts, _ = _acceptance_run(fabric)
        sharded_perf = _perf_delta(perf_before)

        assert len(fabric.partitions) == 5  # 4 buildings + spine
        assert plain_alerts  # the attack was actually detected
        assert sharded_alerts == plain_alerts
        # Merged metric totals: every additive perf counter agrees.
        assert sharded_perf == plain_perf

    def test_process_sharded_run_merges_identical_totals(self):
        REGISTRY.reset()
        perf_before = REGISTRY.snapshot()
        plain_alerts, _ = _acceptance_run(Simulator(seed=7))
        plain_perf = _perf_delta(perf_before)
        plain_counter = _alert_counter_total()

        REGISTRY.reset()
        fabric = ShardedSimulator(seed=7)
        perf_before = REGISTRY.snapshot()
        campus = Campus(
            fabric, buildings=4, leaves_per_building=1, hosts_per_leaf=4
        )
        campus.add_monitor(building=0, leaf=0)
        scheme = make_defense("arpwatch")
        scheme.install(campus)
        victim = campus.host("b0l0h0")
        attacker = campus.host("b1l0h0")
        victim.sim.schedule_at(0.1, victim.announce)
        for i, (src, dst) in enumerate(
            [("b0l0h1", "b2l0h2"), ("b3l0h3", "b0l0h2"), ("b2l0h1", "b1l0h3")]
        ):
            s, d = campus.host(src), campus.host(dst)
            s.sim.schedule_at(0.2 + 0.05 * i, lambda s=s, d=d: s.ping(d.ip))
        for k in range(3):
            attacker.sim.schedule_at(
                0.5 + 0.2 * k,
                lambda a=attacker, v=victim: a.send_arp(
                    ArpPacket.gratuitous(a.mac, v.ip), dst_mac=BROADCAST_MAC
                ),
            )
        summary = fabric.run_sharded(until=2.0, jobs=2)
        sharded_perf = _perf_delta(perf_before)

        assert summary["shards"] == 2
        # Alert objects stay in the worker that raised them; the merged
        # registry counter is the cross-process ground truth.
        assert _alert_counter_total() == plain_counter == len(plain_alerts)
        assert sharded_perf == plain_perf


def _perf_delta(before) -> dict:
    """Every additive perf counter's change since ``before`` (registry)."""
    perf = REGISTRY.delta(before)["collectors"].get("perf", {})
    return {name: perf.get(name, 0) for name in PERF.ADDITIVE}


def _alert_counter_total() -> int:
    family = REGISTRY.snapshot()["metrics"].get("scheme_alerts_total")
    if not family:
        return 0
    return int(sum(s["value"] for s in family["samples"]))
