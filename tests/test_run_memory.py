"""Finished runs free their state: every experiment cell, campus fabrics
and unawaited echoes."""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.attacks.mitm import MitmAttack
from repro.core import api, experiment, scale
from repro.core.experiment import ScenarioConfig
from repro.l2.switch import Switch
from repro.l2.topology import Lan
from repro.schemes.base import Scheme
from repro.schemes.registry import all_profiles
from repro.sim import ShardedSimulator, Simulator
from repro.stack.host import Host
from repro.stack.router import Router
from repro.workloads.benign import BenignTraffic

TINY_CAMPUS = dict(buildings=2, leaves_per_building=2, hosts_per_leaf=8, talkers=2, duration=0.4)

#: Every testbed kind at a small size: a few hosts, seconds of traffic.
SMALL = {
    "effectiveness": dict(
        config=ScenarioConfig(n_hosts=3, warmup=1.0, attack_duration=3.0, cooldown=1.0)
    ),
    "false-positives": dict(config=ScenarioConfig(n_hosts=3), duration=120.0),
    "detection-latency": dict(
        config=ScenarioConfig(n_hosts=3, warmup=1.0, attack_duration=3.0), poison_rate=2.0
    ),
    "overhead": dict(n_hosts=3, resolutions_per_host=2),
    "resolution-latency": dict(n_resolutions=3),
    "interception-timeline": dict(
        config=ScenarioConfig(n_hosts=3, warmup=1.0), duration=10.0, attack_at=3.0,
        bin_seconds=5.0,
    ),
    "footprint": dict(n_hosts=3, settle=5.0),
    "controller-failover": dict(
        config=ScenarioConfig(
            n_hosts=3, attack_duration=4.0, cooldown=1.0, fault_spec="flap=ctrl@t2-3"
        )
    ),
    "dhcp-starvation": dict(config=ScenarioConfig(n_hosts=3), duration=3.0),
}

SCHEMES = [profile.key for profile in all_profiles()]


def _cells():
    for kind in sorted(SMALL):
        if kind == "controller-failover":
            # The kind needs the SDN guard: stack every other scheme on it.
            for key in SCHEMES:
                yield kind, key if key == "sdn-arp-guard" else f"sdn-arp-guard+{key}"
            continue
        if not api.KINDS[kind].requires_scheme:
            yield kind, None
        for key in SCHEMES:
            yield kind, key


@pytest.fixture
def built(monkeypatch):
    """``(type, weak reference)`` for every simulator, host, switch and
    scheme built, with the collector off so only reference counting
    can free them."""
    refs = []
    for cls in (Simulator, Host, Switch, Scheme):
        def recording_init(self, *args, __init=cls.__init__, **kwargs):
            __init(self, *args, **kwargs)
            refs.append((type(self), weakref.ref(self)))

        monkeypatch.setattr(cls, "__init__", recording_init)
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield refs
    finally:
        if enabled:
            gc.enable()


def _alive(refs):
    return [obj for obj in (ref() for _, ref in refs) if obj is not None]


def test_small_cells_cover_every_testbed_kind():
    assert set(SMALL) == set(api.KINDS) - {"campus-churn", "replay"}


@pytest.mark.parametrize("kind, scheme", list(_cells()))
def test_experiment_cell_is_freed_when_the_run_returns(built, kind, scheme):
    """No collection needed: the scenario releases its cycles on exit."""
    api.run(kind, scheme=scheme, **SMALL[kind])
    built_types = {cls for cls, _ in built}
    assert {Simulator, Switch, Router, Host} <= built_types
    assert any(issubclass(cls, Scheme) for cls in built_types) == (scheme is not None)
    assert _alive(built) == []


class _ExplodingMitm(MitmAttack):
    """A MITM whose run dies one simulated second after it starts."""

    def _start(self) -> None:
        super()._start()
        self.attacker.sim.schedule(1.0, self._explode)

    def _explode(self) -> None:
        raise RuntimeError("cell failed mid-run")


@pytest.mark.parametrize("scheme", [None, "arpwatch", "s-arp", "sdn-arp-guard"])
def test_cell_that_raises_mid_run_is_freed(built, monkeypatch, scheme):
    """A failed or retried campaign cell does not leak its LAN."""
    monkeypatch.setattr(experiment, "MitmAttack", _ExplodingMitm)
    try:
        api.run("effectiveness", scheme=scheme, **SMALL["effectiveness"])
    except RuntimeError as exc:
        assert str(exc) == "cell failed mid-run"
    else:
        pytest.fail("the run did not raise")
    assert built
    assert _alive(built) == []


class _ExplodingSimulator(Simulator):
    """A simulator whose run dies 0.2 simulated seconds in."""

    def run(self, *args, **kwargs) -> None:
        self.schedule(0.2, self._explode)
        super().run(*args, **kwargs)

    def _explode(self) -> None:
        raise RuntimeError("cell failed mid-run")


@pytest.mark.parametrize("scheme", [None, "arpwatch"])
def test_campus_cell_that_raises_mid_run_is_freed(built, monkeypatch, scheme):
    monkeypatch.setattr(scale, "Simulator", _ExplodingSimulator)
    try:
        api.run("campus-churn", config=ScenarioConfig(seed=3), scheme=scheme, **TINY_CAMPUS)
    except RuntimeError as exc:
        assert str(exc) == "cell failed mid-run"
    else:
        pytest.fail("the run did not raise")
    assert len(built) > 32
    assert _alive(built) == []


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
