"""Finished runs free their state: every experiment cell, campus fabrics,
replay runs and unawaited echoes.  A run's state is bounded by its LAN:
running a cell ten times longer adds at most a constant."""

from __future__ import annotations

import gc
import tracemalloc
import weakref
from dataclasses import replace

import pytest

from repro.analysis.pcap import PcapWriter
from repro.attacks.dhcp_starvation import DhcpStarvation
from repro.attacks.mitm import MitmAttack
from repro.core import api, experiment, scale
from repro.core.experiment import ScenarioConfig
from repro.errors import PcapError
from repro.l2.switch import Switch
from repro.l2.topology import Campus, Lan
from repro.replay.analyze import analyze
from repro.replay.engine import ReplayEngine
from repro.replay.sources import open_source
from repro.schemes.base import Scheme
from repro.schemes.registry import all_profiles
from repro.sim import ShardedSimulator, Simulator
from repro.stack.arp_cache import ArpCache
from repro.stack.host import Host
from repro.stack.router import Router
from repro.workloads.benign import BenignTraffic, ChurnWorkload

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


# ----------------------------------------------------------------------
# Run state bounded by the LAN: T against 10T
# ----------------------------------------------------------------------
#: The argument that sets how long each ``SMALL`` kind runs: a keyword of
#: ``api.run`` or, where the kind has none, a ``ScenarioConfig`` field.
LENGTH = {
    "effectiveness": "attack_duration",
    "false-positives": "duration",
    "detection-latency": "attack_duration",
    "overhead": "resolutions_per_host",
    "resolution-latency": "n_resolutions",
    "interception-timeline": "duration",
    "footprint": "settle",
    "controller-failover": "attack_duration",
    "dhcp-starvation": "duration",
}

#: The scheme each kind runs with in the T/10T test: none where the kind
#: allows it, so the testbed itself is measured and no alert is kept.
LENGTH_SCHEME = {"detection-latency": "arpwatch", "controller-failover": "sdn-arp-guard"}

#: What the longer run may add.  A constant for allocator and table
#: slack, plus the LAN's own growth: hosts that join (benign DHCP churn)
#: and switch CAM entries, which a table capacity bounds (fresh MACs in a
#: DHCP starvation).
SLACK_BYTES = 8 * 1024
HOST_BYTES = 12 * 1024
CAM_ENTRY_BYTES = 256

#: Structures known to grow with the run that no bound covers yet, each
#: recorded as a finding in CHANGES.md: the starvation attack's map of the
#: DISCOVERs it sent, one entry for every one the server never answers.
KNOWN_GROWTH = ((DhcpStarvation, "_fake_xids"),)

#: Run outputs, which grow with the run by design: a MITM's intercepted
#: packets (Figure 4's input) and the churn workload's event log.
OUTPUTS = ((MitmAttack, "intercepted"), (ChurnWorkload, "events"))


def _stretched(kind, factor):
    """``(scheme, kwargs)`` running ``kind`` ``factor`` times as long."""
    if kind == "campus-churn":
        return None, dict(
            TINY_CAMPUS, config=ScenarioConfig(seed=3), duration=TINY_CAMPUS["duration"] * factor
        )
    if kind == "replay":
        return None, dict(
            source=f"synthetic:frames={3000 * factor},churn=0.3,hosts=16,seed=5", window=256
        )
    kwargs = dict(SMALL[kind])
    name = LENGTH[kind]
    if name in kwargs:
        kwargs[name] = kwargs[name] * factor
    else:
        config = kwargs["config"]
        kwargs["config"] = replace(config, **{name: getattr(config, name) * factor})
    return LENGTH_SCHEME.get(kind), kwargs


class _LiveAtEnd:
    """Traced bytes a run holds as it ends, before it releases its LAN,
    with its outputs and known growth dropped first."""

    def __init__(self, monkeypatch):
        self.reading = None
        for cls in (experiment.Scenario, Campus, ReplayEngine):
            monkeypatch.setattr(cls, "release", self._measuring(cls.release))

    def _measuring(self, release):
        reader = self

        def measuring_release(owner):
            if reader.reading is None:
                reader.reading = reader._read(owner)
            release(owner)

        return measuring_release

    @staticmethod
    def _read(owner):
        for activity in getattr(owner, "_activities", ()):
            for cls, name in OUTPUTS + KNOWN_GROWTH:
                if isinstance(activity, cls):
                    getattr(activity, name).clear()
        lan = owner.lan if hasattr(owner, "lan") else owner
        switches = getattr(lan, "switches", {})
        gc.collect()
        return (
            tracemalloc.get_traced_memory()[0],
            len(lan.hosts),
            sum(len(switch.cam) for switch in switches.values()),
        )

    def run(self, kind, factor):
        scheme, kwargs = _stretched(kind, factor)
        self.reading = None
        api.run(kind, scheme=scheme, **kwargs)
        assert self.reading is not None, "the run released no LAN"
        return self.reading


def _growth(monkeypatch, kind):
    """Bytes a run ten times longer holds at its end beyond a run of the
    small length, and the allowance the LAN's own growth gives it.  A
    first long run warms the bounded module-level memos (the ARP decode memo, the
    address interning caches, ``keychain``) under tracing, so their
    evictions are counted too."""
    live = _LiveAtEnd(monkeypatch)
    tracemalloc.start()
    try:
        live.run(kind, 10)
        gc.collect()
        base = tracemalloc.get_traced_memory()[0]
        short_bytes, short_hosts, short_cam = live.run(kind, 1)
        long_bytes, long_hosts, long_cam = live.run(kind, 10)
    finally:
        tracemalloc.stop()
    allowance = (
        SLACK_BYTES
        + HOST_BYTES * (long_hosts - short_hosts)
        + CAM_ENTRY_BYTES * (long_cam - short_cam)
    )
    assert short_bytes > base
    return long_bytes - short_bytes, allowance


@pytest.mark.parametrize("kind", sorted(api.KINDS))
def test_ten_times_longer_run_holds_at_most_a_constant_more(monkeypatch, kind):
    growth, allowance = _growth(monkeypatch, kind)
    assert growth <= allowance, f"{kind}: {growth:,} B more at 10T (allowed {allowance:,})"


@pytest.mark.paper_size
def test_table_3_length_holds_at_most_a_constant_more(monkeypatch):
    """Table 3's 900 s against a 90 s ``false-positives`` cell, on the
    testbed's default scenario."""
    monkeypatch.setitem(SMALL, "false-positives", dict(config=ScenarioConfig(), duration=90.0))
    growth, allowance = _growth(monkeypatch, "false-positives")
    assert growth <= allowance, f"{growth:,} B more at 900 s (allowed {allowance:,})"


def test_the_bound_catches_a_log_of_every_cache_put(monkeypatch):
    """A per-put log, like the change history ARP caches once kept, fails
    the T/10T bound."""
    put = ArpCache.put

    def logging_put(self, ip, mac, now, source, timeout=None):
        self.__dict__.setdefault("log", []).append((now, ip, mac, source))
        return put(self, ip, mac, now, source, timeout)

    monkeypatch.setattr(ArpCache, "put", logging_put)
    growth, allowance = _growth(monkeypatch, "false-positives")
    assert growth > allowance
