"""Partitioned simulation: boundaries, lookahead windows, fork shards.

The load-bearing claim: a topology split across partitions produces the
same traffic, timestamp-for-timestamp, as the same topology on one
simulator — the boundary replicates ``Link.carry``'s delay arithmetic
and the conservative-lookahead windows never let a frame arrive inside
the window that generated it.
"""

from __future__ import annotations

import pytest

from repro.errors import ClockError, SimulationError, TopologyError
from repro.l2.device import Link
from repro.net.addresses import Ipv4Address, Ipv4Network, MacAddress
from repro.obs.live import TelemetryRecorder
from repro.sim import Partition, ShardedSimulator, Simulator
from repro.sim.trace import TraceRecorder
from repro.stack.host import Host

NET = Ipv4Network("10.9.0.0/24")


def _host(sim, name, index):
    return Host(
        sim,
        name,
        mac=MacAddress(0x02_00_00_00_09_00 + index),
        ip=NET.host(10 + index),
        network=NET,
    )


def _crossover_single(seed: int, latency: float):
    """Two hosts on one simulator, joined by a plain link."""
    sim = Simulator(seed=seed)
    alice = _host(sim, "alice", 1)
    bob = _host(sim, "bob", 2)
    alice.recorder, bob.recorder = TraceRecorder(), TraceRecorder()
    Link(sim, alice.nic, bob.nic, latency=latency)
    alice.ping(bob.ip)
    sim.run(until=1.0)
    return sim, alice, bob


def _crossover_sharded(seed: int, latency: float):
    """The same two hosts, one partition each, joined by a boundary."""
    fabric = ShardedSimulator(seed=seed)
    left = fabric.add_partition("left")
    right = fabric.add_partition("right")
    alice = left.register(_host(left, "alice", 1))
    bob = right.register(_host(right, "bob", 2))
    alice.recorder, bob.recorder = TraceRecorder(), TraceRecorder()
    fabric.connect(alice.nic, bob.nic, latency=latency)
    alice.ping(bob.ip)
    fabric.run(until=1.0)
    return fabric, alice, bob


def _ping_fabric():
    """Alice pings bob across a boundary, one partition each."""
    fabric = ShardedSimulator(seed=13)
    left = fabric.add_partition("left")
    right = fabric.add_partition("right")
    a = left.register(_host(left, "alice", 1))
    b = right.register(_host(right, "bob", 2))
    fabric.connect(a.nic, b.nic, latency=1e-3)
    a.ping(b.ip)
    return fabric


class TestBoundaryEquivalence:
    def test_cross_boundary_traffic_is_byte_identical(self):
        sim, a1, b1 = _crossover_single(seed=11, latency=1e-3)
        fabric, a2, b2 = _crossover_sharded(seed=11, latency=1e-3)
        assert list(a1.recorder) == list(a2.recorder)
        assert list(b1.recorder) == list(b2.recorder)
        assert list(b1.recorder)  # the ping actually crossed
        assert fabric.events_processed == sim.events_processed
        assert fabric.envelopes_routed > 0

    def test_arp_caches_match_after_crossing(self):
        _, a1, b1 = _crossover_single(seed=3, latency=2e-3)
        _, a2, b2 = _crossover_sharded(seed=3, latency=2e-3)
        assert a1.arp_cache.get(b1.ip, now=1.0) == a2.arp_cache.get(b2.ip, now=1.0)
        assert a1.arp_cache.get(b1.ip, now=1.0) == b1.mac
        assert b1.arp_cache.get(a1.ip, now=1.0) == b2.arp_cache.get(a2.ip, now=1.0)

    def test_clocks_pinned_to_horizon(self):
        fabric, _, _ = _crossover_sharded(seed=5, latency=1e-3)
        for partition in fabric.partitions.values():
            assert partition.now == 1.0
        assert fabric.now == 1.0


class TestPartition:
    def test_is_a_simulator(self):
        p = Partition("solo", seed=9)
        assert isinstance(p, Simulator)
        assert p.name == "solo"

    def test_register_rejects_duplicate_names(self):
        p = Partition("solo")
        a = _host(p, "alice", 1)
        p.register(a)
        p.register(a)  # same object is idempotent
        impostor = Host(
            p,
            "alice",
            mac=MacAddress(0x02_00_00_00_09_63),
            ip=NET.host(99),
            network=NET,
        )
        with pytest.raises(TopologyError):
            p.register(impostor)

    def test_device_lookup(self):
        p = Partition("solo")
        a = p.register(_host(p, "alice", 1))
        assert p.device("alice") is a
        with pytest.raises(TopologyError):
            p.device("nobody")

    def test_next_event_time(self):
        p = Partition("solo")
        assert p.next_event_time() is None
        p.schedule_at(0.25, lambda: None)
        assert p.next_event_time() == 0.25

    def test_coalesce_at_rejects_the_past(self):
        p = Partition("solo")
        p.schedule_at(0.5, lambda: None)
        p.run(until=0.5)
        with pytest.raises(ClockError):
            p.coalesce(0.25, object(), [b"x"])


class TestShardedSimulator:
    def test_single_partition_delegates(self):
        fabric = ShardedSimulator(seed=1)
        p = fabric.add_partition("only")
        fired = []
        p.schedule_at(0.1, lambda: fired.append(p.now))
        fabric.run(until=1.0)
        assert fired == [0.1]
        assert fabric.windows == 0  # no window loop needed

    def test_duplicate_partition_name(self):
        fabric = ShardedSimulator()
        fabric.add_partition("a")
        with pytest.raises(TopologyError):
            fabric.add_partition("a")

    def test_connect_rejects_same_partition(self):
        fabric = ShardedSimulator()
        p = fabric.add_partition("only")
        a = p.register(_host(p, "alice", 1))
        b = p.register(_host(p, "bob", 2))
        with pytest.raises(TopologyError, match="plain Link"):
            fabric.connect(a.nic, b.nic, latency=1e-3)

    def test_connect_requires_registration(self):
        fabric = ShardedSimulator()
        left = fabric.add_partition("left")
        right = fabric.add_partition("right")
        a = _host(left, "alice", 1)  # never registered
        b = right.register(_host(right, "bob", 2))
        with pytest.raises(TopologyError):
            fabric.connect(a.nic, b.nic, latency=1e-3)

    def test_boundary_latency_must_be_positive(self):
        fabric = ShardedSimulator()
        left = fabric.add_partition("left")
        right = fabric.add_partition("right")
        a = left.register(_host(left, "alice", 1))
        b = right.register(_host(right, "bob", 2))
        with pytest.raises(TopologyError, match="lookahead"):
            fabric.connect(a.nic, b.nic, latency=0.0)

    def test_lookahead_is_min_boundary_latency(self):
        fabric = ShardedSimulator()
        parts = [fabric.add_partition(f"p{i}") for i in range(3)]
        hosts = [
            parts[i].register(_host(parts[i], f"h{i}", i + 1)) for i in range(3)
        ]
        fabric.connect(hosts[0].nic, hosts[1].nic, latency=4e-3)
        fabric.connect(hosts[1].add_port("h1.eth1"), hosts[2].nic, latency=2e-3)
        assert fabric.lookahead == 2e-3

    def test_aggregate_telemetry_surface(self):
        fabric = ShardedSimulator()
        left = fabric.add_partition("left")
        right = fabric.add_partition("right")
        left.schedule_at(0.5, lambda: None)
        right.schedule_at(0.5, lambda: None)
        right.schedule_at(0.7, lambda: None)
        assert fabric.heap_depth == 3
        assert fabric.heap_depths() == {"left": 1, "right": 2}
        assert fabric.pending() == 3
        assert fabric.events_processed == 0

    def test_run_without_partitions_raises(self):
        with pytest.raises(SimulationError):
            ShardedSimulator().run(until=1.0)


class TestRunSharded:
    def test_fork_run_matches_in_process(self):
        results = {}
        for mode in ("inproc", "forked"):
            fabric = ShardedSimulator(seed=21)
            parts = [fabric.add_partition(f"p{i}") for i in range(4)]
            hosts = [
                parts[i].register(_host(parts[i], f"h{i}", i + 1))
                for i in range(4)
            ]
            # Ring of boundaries.
            for i in range(4):
                j = (i + 1) % 4
                fabric.connect(
                    hosts[i].add_port(f"h{i}.ring-out"),
                    hosts[j].add_port(f"h{j}.ring-in"),
                    latency=1e-3,
                )
            for i in range(4):
                hosts[i].sim.schedule_at(0.01 * (i + 1), lambda: None)
            if mode == "forked":
                summary = fabric.run_sharded(until=0.5, jobs=2)
                assert summary["shards"] in (1, 2)
            else:
                fabric.run(until=0.5)
            results[mode] = fabric.events_processed
        assert results["inproc"] == results["forked"]

    def test_fork_run_merges_host_traffic(self):
        reference = _ping_fabric()
        reference.run(until=1.0)

        forked = _ping_fabric()
        summary = forked.run_sharded(until=1.0, jobs=2)
        assert summary["events"] == reference.events_processed
        assert forked.events_processed == reference.events_processed
        assert forked.now == 1.0

    def test_fork_run_counts_like_in_process(self):
        """Events, windows and routed envelopes agree across the two runs,
        the envelope posted before the run (the first ARP request)
        included."""
        reference = _ping_fabric()
        reference.run(until=1.0)
        forked = _ping_fabric()
        summary = forked.run_sharded(until=1.0, jobs=2)
        assert summary["shards"] == 2
        counts = [
            (f.events_processed, f.windows, f.envelopes_routed)
            for f in (reference, forked)
        ]
        assert counts[0] == counts[1]
        assert (summary["events"], summary["windows"], summary["envelopes"]) == counts[0]
        assert reference.envelopes_routed == 6

    def test_forked_run_spends_the_fabric(self):
        """The parent's partitions keep their pre-fork queues: running
        them again would replay traffic the workers already carried."""
        forked = _ping_fabric()
        summary = forked.run_sharded(until=1.0, jobs=2)
        assert summary["shards"] == 2
        with pytest.raises(SimulationError, match="ran forked"):
            forked.run(until=2.0)
        with pytest.raises(SimulationError, match="ran forked"):
            forked.run_sharded(until=2.0, jobs=2)
        assert forked.now == 1.0

    def test_forked_run_carries_the_queues_home(self):
        """The workers' finish replies carry each partition's queue state
        home: after a forked run the parent reads the same ``pending``,
        heap depths and run-end telemetry row as after an in-process
        run, not its pre-fork queues."""
        readings = {}
        for mode in ("inproc", "forked"):
            fabric = _ping_fabric()
            recorder = TelemetryRecorder(include_metrics=False)
            recorder.attach(fabric)
            if mode == "forked":
                assert fabric.run_sharded(until=1.0, jobs=2)["shards"] == 2
            else:
                fabric.run(until=1.0)
            end = recorder.snapshots[-1]
            readings[mode] = (
                fabric.pending(), fabric.heap_depth, fabric.heap_depths(),
                end["reason"], end["pending"], end["heap_depth"],
                end["heap_depth_by_partition"],
            )
        assert readings["inproc"][:3] == (0, 0, {"left": 0, "right": 0})
        assert readings["forked"] == readings["inproc"]

    def test_in_process_fabric_runs_again(self):
        fabric = _ping_fabric()
        fabric.run(until=1.0)
        fabric.run(until=2.0)
        bob = fabric.partitions["right"].device("bob")
        assert (fabric.events_processed, bob.nic.rx_frames) == (6, 3)

    def test_jobs_one_falls_back(self):
        fabric = ShardedSimulator(seed=2)
        p = fabric.add_partition("only")
        p.schedule_at(0.1, lambda: None)
        summary = fabric.run_sharded(until=1.0, jobs=1)
        assert summary["shards"] == 1
        assert fabric.events_processed == 1
