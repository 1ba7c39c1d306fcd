"""Finished runs free their state: every experiment cell, campus fabrics,
replay runs and unawaited echoes."""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.analysis.pcap import PcapWriter
from repro.attacks.mitm import MitmAttack
from repro.core import api, experiment, scale
from repro.core.experiment import ScenarioConfig
from repro.errors import PcapError
from repro.l2.switch import Switch
from repro.l2.topology import Lan
from repro.replay.analyze import analyze
from repro.replay.sources import open_source
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


#: The test that runs each kind and asserts its run frees itself.
FREED_RUN_TESTS = {
    **{kind: "test_experiment_cell_is_freed_when_the_run_returns" for kind in SMALL},
    "campus-churn": "test_campus_fabric_is_freed_when_the_run_returns",
    "replay": "test_replay_run_is_freed_when_the_run_returns",
}


def test_small_cells_cover_every_testbed_kind():
    """Every kind ``api.run`` accepts has a freed-run test."""
    assert set(FREED_RUN_TESTS) == set(api.KINDS)
    assert all(callable(globals()[name]) for name in FREED_RUN_TESTS.values())


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


#: No scheme, every scheme the replay engine accepts (monitor-placed,
#: not active-probe: arpwatch, snort-arpspoof, hybrid) and one stack.
REPLAY_SCHEMES = [
    None,
    *(p.key for p in all_profiles() if p.placement == "monitor" and p.key != "active-probe"),
    "arpwatch+snort-arpspoof",
]

SYNTHETIC = "synthetic:frames=3000,churn=0.3,hosts=16,seed=5"


def _write_pcap(path):
    """The ``SYNTHETIC`` stream as a capture file."""
    with PcapWriter(path) as writer:
        for ts, raw in open_source(SYNTHETIC):
            writer.append_frame(ts, raw)
    return path


def _assert_replay_freed(built, scheme):
    """The station, its simulator and every scheme are dead."""
    built_types = {cls for cls, _ in built}
    assert Simulator in built_types
    assert any(issubclass(cls, Host) for cls in built_types)
    assert any(issubclass(cls, Scheme) for cls in built_types) == (scheme is not None)
    assert _alive(built) == []


@pytest.mark.parametrize("source", ["synthetic", "pcap"])
@pytest.mark.parametrize("scheme", REPLAY_SCHEMES)
def test_replay_run_is_freed_when_the_run_returns(built, tmp_path, scheme, source):
    """No collection needed: the engine releases its station on exit."""
    spec = SYNTHETIC if source == "synthetic" else f"pcap:{_write_pcap(tmp_path / 't.pcap')}"
    result = api.run("replay", scheme=scheme, source=spec, window=256)
    assert result.frames == 3000
    assert result.delivered > 0
    _assert_replay_freed(built, scheme)


@pytest.mark.parametrize("scheme", [None, "arpwatch", "hybrid"])
def test_replay_that_raises_mid_run_is_freed(built, tmp_path, scheme):
    """A capture cut mid-record fails the run after some windows went in."""
    path = _write_pcap(tmp_path / "cut.pcap")
    path.write_bytes(path.read_bytes()[:-5])
    with pytest.raises(PcapError, match="byte offset"):
        api.run("replay", scheme=scheme, source=f"pcap:{path}", window=256)
    _assert_replay_freed(built, scheme)


def test_analyze_is_freed_and_keeps_its_alerts_readable(built, tmp_path):
    report = analyze(f"pcap:{_write_pcap(tmp_path / 'a.pcap')}")
    _assert_replay_freed(built, "hybrid+snort-arpspoof")
    assert report.frames == 3000
    assert report.stations > 0
    assert report.alerts
    assert "findings:" in report.render()
    assert all(str(alert) for alert in report.alerts)


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
