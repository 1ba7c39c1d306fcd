"""Finished runs free their state: campus fabrics and unawaited echoes."""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.core import api, scale
from repro.core.experiment import ScenarioConfig
from repro.l2.topology import Lan
from repro.sim import ShardedSimulator, Simulator
from repro.workloads.benign import BenignTraffic

TINY_CAMPUS = dict(buildings=2, leaves_per_building=2, hosts_per_leaf=8, talkers=2, duration=0.4)


@pytest.mark.parametrize(
    "shards, scheme", [(0, None), (1, None), (2, None), (0, "arpwatch"), (1, "arpwatch")]
)
def test_campus_fabric_is_freed_when_the_run_returns(monkeypatch, shards, scheme):
    """No collection needed: the run releases its cycles before returning."""
    refs = []

    def recording(base):
        class Recording(base):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                refs.append(weakref.ref(self))

        return Recording

    def recorded_campus(*args, **kwargs):
        campus = campus_type(*args, **kwargs)
        refs.extend(weakref.ref(h) for h in campus.hosts.values())
        return campus

    campus_type = scale.Campus
    monkeypatch.setattr(scale, "Simulator", recording(Simulator))
    monkeypatch.setattr(scale, "ShardedSimulator", recording(ShardedSimulator))
    monkeypatch.setattr(scale, "Campus", recorded_campus)
    enabled = gc.isenabled()
    gc.disable()
    try:
        result = api.run(
            "campus-churn", config=ScenarioConfig(seed=3), scheme=scheme, shards=shards,
            **TINY_CAMPUS,
        )
        assert result.deliveries > 0
        assert len(refs) == 1 + 32  # the fabric and every host
        assert [ref for ref in refs if ref() is not None] == []
    finally:
        if enabled:
            gc.enable()


def test_unawaited_ping_keeps_no_state(sim):
    lan = Lan(sim)
    a, b = lan.add_host("a"), lan.add_host("b")
    a.ping(b.ip)
    a.ping(b.ip + 100)  # nobody owns it: never answered
    assert a._pending_pings == {}
    sim.run(until=2.0)
    assert a._pending_pings == {}
    assert a.counters["icmp_reply_rx"] == 1


def test_benign_traffic_counts_replies_without_pending_pings(sim):
    lan = Lan(sim)
    hosts = [lan.add_host(f"h{i}") for i in range(4)]
    traffic = BenignTraffic(lan, rate_per_host=2.0, wan_fraction=0.0)
    traffic.start()
    sim.run(until=10.0)
    traffic.stop()
    assert all(host._pending_pings == {} for host in hosts)
    assert 0 < traffic.replies_received <= traffic.pings_sent
    assert traffic.replies_received == sum(h.counters["icmp_reply_rx"] for h in hosts)
