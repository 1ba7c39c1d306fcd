"""Device capture and the codec counters of the host receive path.

The capture of a fixed-seed MITM on every host and the switch is pinned
as a sha256, so a receive-path change that reorders, drops or adds a
captured frame on either plane shows up as a mismatch.  Devices capture
nothing unless a recorder is attached, and the codec counters read the
same on the batched and per-frame planes.
"""

from __future__ import annotations

import hashlib
from functools import partial

import pytest

import repro.sim.simulator as simulator
from repro.attacks.mitm import MitmAttack
from repro.core.api import run
from repro.core.experiment import Scenario, ScenarioConfig
from repro.l2.device import Link
from repro.l2.hub import Hub
from repro.net.addresses import Ipv4Network, MacAddress
from repro.perf import PERF
from repro.replay import ReplayEngine
from repro.replay.sources import SyntheticSource
from repro.schemes import make_defense
from repro.sim.simulator import Simulator
from repro.sim.trace import TraceRecorder
from repro.stack.host import Host

#: sha256 of every ``(time, location, direction, frame)`` record captured
#: by the hosts and the switch in :func:`_mitm_capture`.
MITM_CAPTURE_SHA256 = (
    "df00e5c9592786bfd1e1ea768915d26b506e0bc2225711132e85d082593b1d42"
)


def _mitm(monkeypatch, batching: bool, capture: bool):
    """A fixed-seed MITM under dai+arpwatch; with ``capture`` every host
    and the switch record.  Returns the scenario and those devices."""
    monkeypatch.setattr(simulator, "DEFAULT_BATCHING", batching)
    config = ScenarioConfig(
        seed=11, n_hosts=6, warmup=1.0, attack_duration=4.0, cooldown=1.0
    )
    scenario = Scenario(config)
    lan = scenario.lan
    devices = [lan.hosts[name] for name in sorted(lan.hosts)] + [lan.switch]
    if capture:
        for device in devices:
            device.recorder = TraceRecorder()
    scenario.install(make_defense("dai+arpwatch"))
    scenario.warm_caches()
    mitm = MitmAttack(
        scenario.attacker, scenario.victim, scenario.gateway, technique="reply"
    )
    mitm.start()
    cancel = scenario.sim.call_every(
        0.5, lambda: scenario.victim.ping(scenario.gateway.ip)
    )
    scenario.sim.run(until=scenario.sim.now + config.attack_duration)
    mitm.stop()
    cancel()
    scenario.sim.run(until=scenario.sim.now + config.cooldown)
    return scenario, devices


def _mitm_capture(monkeypatch, batching: bool) -> str:
    _, devices = _mitm(monkeypatch, batching, capture=True)
    digest = hashlib.sha256()
    count = 0
    for device in devices:
        for record in device.recorder.records:
            digest.update(
                repr(
                    (record.time, record.location, record.direction, record.frame)
                ).encode()
            )
            count += 1
    assert count > 100  # the run really captured traffic everywhere
    return digest.hexdigest()


@pytest.mark.parametrize("batching", [True, False])
def test_mitm_capture_digest_is_pinned(monkeypatch, batching):
    assert _mitm_capture(monkeypatch, batching) == MITM_CAPTURE_SHA256


def _hub_lan_counters(batching: bool) -> dict:
    """Codec counter deltas for a hub LAN where every host resolves every
    peer: each frame reaches every host as the same repeated buffer, and
    the hub builds no frame view of its own."""
    sim = Simulator(seed=5, batching=batching)
    network = Ipv4Network("10.0.0.0/24")
    hub = Hub(sim, "hub", num_ports=8)
    hosts = []
    for i, port in enumerate(hub.ports):
        host = Host(
            sim,
            f"h{i}",
            mac=MacAddress(f"02:00:00:00:00:{i + 1:02x}"),
            ip=network.host(i + 1),
            network=network,
        )
        Link(sim, host.nic, port)
        hosts.append(host)
    before = {
        name: getattr(PERF, name)
        for name in ("lazy_frames", "payload_decodes", "eager_decodes")
    }
    # Every host at once: the floods reach each host in one wide batch.
    for host in hosts:
        host.announce()
    sim.run(until=0.5)
    # One resolution at a time: each flood reaches each host alone.
    pairs = [(host, peer) for host in hosts for peer in hosts if peer is not host]
    for k, (host, peer) in enumerate(pairs):
        sim.schedule_at(0.5 + 0.01 * k, partial(host.ping, peer.ip))
    sim.run(until=0.5 + 0.01 * len(pairs) + 5.0)
    return {name: getattr(PERF, name) - value for name, value in before.items()}


def test_flood_counters_match_the_per_frame_plane():
    """Sharing work between hosts receiving one flooded buffer must not
    change what the codec counters report."""
    batched = _hub_lan_counters(True)
    assert batched["lazy_frames"] > 200
    assert batched == _hub_lan_counters(False)


class TestNothingCapturedUnlessAsked:
    @pytest.fixture
    def records_built(self, monkeypatch):
        """Every record any recorder builds, wherever it is attached."""
        built = []
        record = TraceRecorder.record

        def counting(self, *args, **kwargs):
            built.append(args)
            return record(self, *args, **kwargs)

        monkeypatch.setattr(TraceRecorder, "record", counting)
        return built

    @pytest.mark.parametrize("batching", [True, False])
    def test_scenario_run_builds_no_record(
        self, monkeypatch, records_built, batching
    ):
        scenario, devices = _mitm(monkeypatch, batching, capture=False)
        assert scenario.sim.events_processed > 50
        assert all(device.recorder is None for device in devices)
        assert all(link.recorder is None for link in scenario.lan.links)
        assert records_built == []

    def test_replay_run_builds_no_record(self, records_built):
        engine = ReplayEngine(Simulator(seed=3))
        engine.install(make_defense("arpwatch"))
        stats = engine.run(SyntheticSource(frames=2_000, seed=3))
        assert stats["frames"] == 2_000
        assert all(host.recorder is None for host in engine.lan.hosts.values())
        assert records_built == []

    @pytest.mark.parametrize(
        "scheme,arp_frames,total_wire_bytes",
        [(None, 58, 6360), ("s-arp", 84, 18384)],
    )
    def test_overhead_runner_captures_what_it_counts(
        self, scheme, arp_frames, total_wire_bytes
    ):
        """Figure 2 counts the switch capture it attaches after its
        quiesce; the counts are pinned."""
        result = run(
            "overhead", ScenarioConfig(seed=3, n_hosts=6), scheme=scheme
        )
        assert (result.arp_frames, result.total_wire_bytes) == (
            arp_frames,
            total_wire_bytes,
        )
