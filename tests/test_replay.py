"""Streaming trace ingestion: sources, the replay engine, and frontends.

Covers the FrameSource protocol (determinism, spec round-trips, the
open_source grammar), the engine's bounded-memory and timekeeping
invariants, the replay-vs-live alert parity acceptance test, and the
api.run / campaign / CLI integration.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis.pcap import PcapWriter
from repro.core import api
from repro.core.experiment import ScenarioConfig, result_from_dict
from repro.errors import ExperimentError, ReplayError, SchemeError
from repro.l2.topology import Lan
from repro.obs.registry import REGISTRY
from repro.obs.trace import TRACER
from repro.packets.arp import ArpPacket
from repro.replay import (
    DEFAULT_WINDOW,
    MemorySource,
    PcapSource,
    ReplayEngine,
    ReplayResult,
    SyntheticSource,
    open_source,
    parse_rate,
)
from repro.replay.engine import _run_replay
from repro.schemes import make_defense
from repro.sim import Simulator
from repro.sim.trace import Direction, TraceRecorder


class TestParseRate:
    def test_suffixes(self):
        assert parse_rate("500k") == 500_000.0
        assert parse_rate("1.5m") == 1_500_000.0
        assert parse_rate("250") == 250.0
        assert parse_rate(42) == 42.0

    def test_rejects_garbage_and_nonpositive(self):
        with pytest.raises(ReplayError, match="invalid rate"):
            parse_rate("fast")
        with pytest.raises(ReplayError, match="positive"):
            parse_rate("0")
        with pytest.raises(ReplayError, match="positive"):
            parse_rate(-5)


class TestSyntheticSource:
    def test_reiteration_is_deterministic(self):
        source = SyntheticSource(frames=2_000, seed=11)
        first = list(source)
        second = list(source)
        assert first == second
        assert source.frames_read == 2_000
        assert source.bytes_read == sum(len(raw) for _, raw in first)

    def test_different_seeds_differ(self):
        a = list(SyntheticSource(frames=2_000, seed=1))
        b = list(SyntheticSource(frames=2_000, seed=2))
        assert a != b

    def test_timestamps_follow_rate(self):
        source = SyntheticSource(rate="10k", frames=100)
        stamps = [ts for ts, _ in source]
        assert stamps[0] == 0.0
        assert stamps[1] == pytest.approx(1e-4)
        assert stamps[-1] == pytest.approx(99e-4)

    def test_contains_arp_and_benign_mix(self):
        frames = [raw for _, raw in SyntheticSource(frames=5_000, arp=0.2)]
        arp = sum(1 for raw in frames if raw[12:14] == b"\x08\x06")
        ipv4 = sum(1 for raw in frames if raw[12:14] == b"\x08\x00")
        assert arp + ipv4 == len(frames)
        assert 0.15 < arp / len(frames) < 0.25
        tcp = sum(1 for raw in frames if raw[12:14] == b"\x08\x00" and raw[23] == 6)
        udp = sum(1 for raw in frames if raw[12:14] == b"\x08\x00" and raw[23] == 17)
        assert tcp > udp > 0  # ~3:1 benign TCP:UDP mix

    def test_validation(self):
        with pytest.raises(ReplayError, match="arp share"):
            SyntheticSource(arp=1.5)
        with pytest.raises(ReplayError, match="churn"):
            SyntheticSource(churn=-0.1)
        with pytest.raises(ReplayError, match=">= 2 hosts"):
            SyntheticSource(hosts=1)

    def test_total_frames(self):
        assert SyntheticSource(frames="5k").total_frames == 5_000


class TestSpecGrammar:
    def test_defaults_canonicalize_to_bare_spec(self):
        assert SyntheticSource().spec_string == "synthetic:"

    def test_round_trip_through_spec_string(self):
        spec = "synthetic:rate=500000,frames=50000,churn=0.2,seed=9"
        source = open_source(spec)
        assert source.spec_string == spec
        again = open_source(source.spec_string)
        assert list(again)[:100] == list(source)[:100]

    def test_round_trip_through_to_dict(self):
        source = open_source("synthetic:rate=100k,churn=0.3")
        payload = json.loads(json.dumps(source.to_dict()))
        restored = SyntheticSource.from_dict(payload)
        assert restored.spec_string == source.spec_string

    def test_suffixes_normalize(self):
        assert open_source("synthetic:rate=500k").spec_string == (
            "synthetic:rate=500000"
        )

    def test_pcap_spec(self, tmp_path):
        path = tmp_path / "t.pcap"
        with PcapWriter(path) as writer:
            writer.append_frame(0.0, b"\x00" * 60)
        source = open_source(f"pcap:{path}")
        assert isinstance(source, PcapSource)
        assert source.spec_string == f"pcap:{path}"
        assert len(list(source)) == 1

    def test_passthrough_and_mapping(self):
        source = SyntheticSource(frames=10)
        assert open_source(source) is source
        assert open_source(source.to_dict()).spec_string == source.spec_string

    def test_errors_name_the_problem(self):
        with pytest.raises(ReplayError, match="no kind prefix"):
            open_source("just-a-path.pcap")
        with pytest.raises(ReplayError, match="unknown source kind"):
            open_source("csv:whatever")
        with pytest.raises(ReplayError, match="unknown parameter"):
            open_source("synthetic:bogus=1")
        with pytest.raises(ReplayError, match="duplicate"):
            open_source("synthetic:seed=1,seed=2")
        with pytest.raises(ReplayError, match="needs a path"):
            open_source("pcap:")
        with pytest.raises(ReplayError, match="no such file"):
            open_source("pcap:/does/not/exist.pcap")


class TestReplayEngine:
    def test_bounded_memory_on_multi_mb_trace(self):
        """Peak in-flight frames never exceeds the window, even when the
        trace is far larger than the window (O(window) memory)."""
        window = 256
        source = SyntheticSource(frames=100_000, seed=3)  # ~8 MB of frames
        engine = ReplayEngine(Simulator(seed=1), window=window)
        stats = engine.run(source)
        assert stats["frames"] == 100_000
        assert stats["bytes"] > 2 * 1024 * 1024
        assert 0 < stats["peak_in_flight"] <= window
        assert engine.peak_in_flight <= window

    def test_window_one_forces_per_frame(self):
        """Window 1 holds one frame in flight and delivers what any
        other window does: the window bounds memory only."""
        engine = ReplayEngine(Simulator(seed=1), window=1)
        stats = engine.run(SyntheticSource(frames=500))
        wide = ReplayEngine(Simulator(seed=1), window=1024)
        assert stats["delivered"] == wide.run(SyntheticSource(frames=500))["delivered"]
        assert stats["peak_in_flight"] == 1

    def test_observer_sees_every_frame(self):
        seen = []
        engine = ReplayEngine(
            Simulator(seed=1), observer=lambda ts, raw: seen.append(ts)
        )
        engine.run(SyntheticSource(frames=300))
        assert len(seen) == 300

    def test_clock_follows_trace_timestamps(self):
        sim = Simulator(seed=1)
        engine = ReplayEngine(sim, window=64)
        engine.run(SyntheticSource(rate="1k", frames=2_000))
        assert sim.now == pytest.approx(1.999)

    def test_backwards_timestamps_clamped_and_counted(self):
        frames = [(1.0, b"\x00" * 60), (0.5, b"\x01" * 60), (2.0, b"\x02" * 60)]
        engine = ReplayEngine(Simulator(seed=1), window=1)
        before = REGISTRY.snapshot()
        stats = engine.run(MemorySource(frames))
        assert stats["skew"] == 1
        assert stats["last_ts"] == 2.0
        delta = REGISTRY.delta(before)
        family = delta["metrics"]["replay_skew_total"]
        assert sum(s["value"] for s in family["samples"]) == 1

    def test_rejects_non_monitor_scheme(self):
        engine = ReplayEngine(Simulator(seed=1))
        with pytest.raises(SchemeError, match="monitor-placement"):
            engine.install(make_defense("dai"))

    @pytest.mark.parametrize("key", ("active-probe", "arpwatch+active-probe"))
    def test_rejects_active_probe(self, key):
        """A capture cannot answer active-probe's only verdict path."""
        engine = ReplayEngine(Simulator(seed=1))
        with pytest.raises(SchemeError, match="active-probe"):
            engine.install(make_defense(key))
        assert engine.schemes == []

    def test_rejects_bad_window(self):
        with pytest.raises(ReplayError, match="window"):
            ReplayEngine(Simulator(seed=1), window=0)

    @pytest.mark.parametrize(
        "key",
        ("arpwatch", "hybrid", "snort-arpspoof", "hybrid+snort-arpspoof",
         "arpwatch+hybrid", "arpwatch+snort-arpspoof"),
    )
    def test_batched_and_per_frame_agree_on_alerts(self, key):
        """A wide window and a window of one raise identical alerts at
        identical times on the same trace, member by member for a
        stack, and deliver the same frames.  Snort defends each IP's
        first binding in the trace, so churn violates it."""
        spec = "synthetic:frames=20000,churn=0.4,seed=5"
        inventory = {}
        for _, raw in open_source(spec):
            if raw[12:14] == b"\x08\x06":
                arp = ArpPacket.decode(raw[14:])
                inventory.setdefault(arp.spa, arp.sha)

        def alerts(window):
            engine = ReplayEngine(
                Simulator(seed=1), window=window, inventory=inventory
            )
            scheme = engine.install(make_defense(key))
            delivered = engine.run(spec)["delivered"]
            members = getattr(scheme, "schemes", [scheme])
            return [[(a.time, a.kind, a.ip, a.mac) for a in m.alerts] for m in members], delivered

        batched = alerts(DEFAULT_WINDOW)
        per_frame = alerts(1)
        assert batched == per_frame == alerts(2)
        assert all(batched[0])


class TestReplayVsLive:
    def test_replaying_recorded_attack_matches_live_alerts(self, tmp_path):
        """The acceptance loop: record a live poisoning run at the
        monitor, export the capture, replay it — the scheme raises the
        same alerts, resolvable to the same frames via provenance."""
        from repro.attacks.mitm import MitmAttack
        from repro.stack.os_profiles import WINDOWS_XP

        # --- live run, traced, with arpwatch at the monitor ------------
        TRACER.reset()
        TRACER.enable()
        try:
            sim = Simulator(seed=21)
            lan = Lan(sim)
            monitor = lan.add_monitor()
            monitor.recorder = TraceRecorder()
            victim = lan.add_host("victim", profile=WINDOWS_XP)
            mallory = lan.add_host("mallory")
            live_scheme = make_defense("arpwatch")
            live_scheme.install(lan)
            # Map each monitor-RX frame id to its capture position — the
            # provenance identity that survives the pcap round trip.
            positions: dict[int, int] = {}
            rx_records = []

            def tap(record):
                if record.direction != Direction.RX:
                    return
                fid = TRACER.provenance.lookup(record.frame)
                if fid is not None:
                    positions[fid] = len(rx_records)
                rx_records.append(record)

            monitor.recorder.tap(tap)
            victim.ping(lan.gateway.ip)
            sim.run(until=2.0)
            mitm = MitmAttack(mallory, victim, lan.gateway)
            mitm.start()
            sim.run(until=10.0)
            mitm.stop()
            sim.run(until=11.0)
        finally:
            TRACER.disable()

        live_alerts = [(a.kind, a.ip, a.mac) for a in live_scheme.alerts]
        live_frame_positions = sorted(
            positions[a.frame_id]
            for a in live_scheme.alerts
            if a.frame_id in positions
        )
        assert live_alerts, "live run must raise alerts to compare"

        path = tmp_path / "incident.pcap"
        with PcapWriter(path) as writer:
            for record in rx_records:
                writer.append(record)

        # --- replay the capture, fresh tracer (ids = position + 1) -----
        TRACER.reset()
        TRACER.enable()
        try:
            engine = ReplayEngine(Simulator(seed=99))
            replay_scheme = engine.install(make_defense("arpwatch"))
            stats = engine.run(f"pcap:{path}")
        finally:
            TRACER.disable()
            TRACER.reset()

        # Tracing turns the capture filter off: ids number every frame.
        assert stats["delivered"] == stats["frames"] == len(rx_records)
        replay_alerts = [
            (a.kind, a.ip, a.mac) for a in replay_scheme.alerts
        ]
        assert replay_alerts == live_alerts
        # Same frames: replay frame ids are 1-based trace positions.
        replay_frame_positions = sorted(
            a.frame_id - 1
            for a in replay_scheme.alerts
            if a.frame_id is not None
        )
        assert replay_frame_positions == live_frame_positions
        # Alert times match to pcap's microsecond quantization.
        for live, replayed in zip(live_scheme.alerts, replay_scheme.alerts):
            assert replayed.time == pytest.approx(live.time, abs=1e-5)


    def test_hybrid_replays_recorded_mitm_passively(self, tmp_path):
        """The replay station has no IP, so hybrid cannot probe: it must
        alert the rebindings itself instead of failing in its probe."""
        from repro.attacks.mitm import MitmAttack
        from repro.stack.os_profiles import WINDOWS_XP

        sim = Simulator(seed=21)
        lan = Lan(sim)
        monitor = lan.add_monitor()
        monitor.recorder = TraceRecorder()
        victim = lan.add_host("victim", profile=WINDOWS_XP)
        mallory = lan.add_host("mallory")
        victim.ping(lan.gateway.ip)
        sim.run(until=2.0)
        mitm = MitmAttack(mallory, victim, lan.gateway)
        mitm.start()
        sim.run(until=10.0)
        mitm.stop()
        path = tmp_path / "incident.pcap"
        with PcapWriter(path) as writer:
            for record in monitor.recorder.records:
                writer.append(record)

        before = REGISTRY.snapshot()
        engine = ReplayEngine(Simulator(seed=99), window=1)
        hybrid = engine.install(make_defense("hybrid"))
        engine.run(f"pcap:{path}")
        errors = REGISTRY.delta(before)["metrics"].get("hook_errors_total")

        assert not errors or sum(s["value"] for s in errors["samples"]) == 0
        assert hybrid.probes_sent == 0 and not hybrid._pending
        changed = [a for a in hybrid.alerts if a.kind in ("changed", "flip-flop")]
        assert any(a.mac == mallory.mac for a in changed)


class TestApiIntegration:
    def test_kind_registered(self):
        kind = api.KINDS["replay"]
        assert kind.result_type is ReplayResult
        assert kind.required == ("source",)

    def test_run_and_result_roundtrip(self):
        result = api.run(
            "replay",
            ScenarioConfig(seed=5),
            scheme="arpwatch",
            source="synthetic:frames=5000,churn=0.5",
        )
        assert result.frames == 5_000
        assert result.alerts > 0
        assert result.scheme == "arpwatch"
        assert result.frames_per_sec > 0
        assert result.peak_in_flight <= result.window
        restored = result_from_dict(json.loads(json.dumps(result.to_dict())))
        assert restored == result

    def test_baseline_run_without_scheme(self):
        result = api.run("replay", source="synthetic:frames=1000")
        assert result.scheme == "none"
        assert result.alerts == 0

    def test_missing_source_rejected(self):
        with pytest.raises(ExperimentError, match="source"):
            api.run("replay")
        with pytest.raises(ReplayError, match="source"):
            _run_replay("arpwatch")

    def test_non_monitor_scheme_rejected(self):
        with pytest.raises(SchemeError, match="monitor-placement"):
            api.run("replay", scheme="dai", source="synthetic:frames=100")

    def test_fixed_seed_runs_are_identical(self):
        kwargs = dict(scheme="arpwatch", source="synthetic:frames=5000,churn=0.5")
        a = api.run("replay", ScenarioConfig(seed=3), **kwargs)
        b = api.run("replay", ScenarioConfig(seed=3), **kwargs)
        assert (a.frames, a.delivered, a.alerts) == (b.frames, b.delivered, b.alerts)


class TestCampaignIntegration:
    def test_traces_axis_expands_grid(self):
        from repro.campaign.spec import CampaignSpec

        spec = CampaignSpec(
            experiment="replay",
            schemes=("arpwatch",),
            traces=("synthetic:frames=2000", "synthetic:frames=2000,churn=0.5"),
            seeds=2,
        )
        tasks = spec.tasks()
        assert len(tasks) == 4
        assert {t.variant["trace"] for t in tasks} == set(spec.traces)
        restored = CampaignSpec.from_dict(
            json.loads(json.dumps(spec.to_dict()))
        )
        assert restored == spec

    def test_traces_axis_only_for_replay(self):
        from repro.campaign.spec import CampaignSpec
        from repro.errors import CampaignError

        with pytest.raises(CampaignError, match="traces axis"):
            CampaignSpec(experiment="overhead", traces=("synthetic:",))
        with pytest.raises(CampaignError, match="invalid trace spec"):
            CampaignSpec(experiment="replay", traces=("bogus:x",))
        with pytest.raises(CampaignError, match="not both"):
            CampaignSpec(
                experiment="replay",
                traces=("synthetic:",),
                variants=({"trace": "synthetic:"},),
            )

    def test_execute_replay_task(self):
        from repro.campaign.spec import CampaignSpec, execute_task
        from repro.core.experiment import result_from_dict

        spec = CampaignSpec(
            experiment="replay",
            schemes=("arpwatch",),
            traces=("synthetic:frames=2000,churn=0.5",),
            seeds=1,
        )
        (task,) = spec.tasks()
        result = result_from_dict(execute_task(task))
        assert isinstance(result, ReplayResult)
        assert result.frames == 2_000
        assert result.alerts > 0

    def test_cli_grid_monitor_schemes_only(self):
        from repro.cli import _campaign_grid, build_parser

        args = build_parser().parse_args(
            ["campaign", "--experiment", "replay",
             "--traces", "synthetic:frames=1000"]
        )
        schemes, variants, _scenario = _campaign_grid(args)
        assert None in schemes
        assert "arpwatch" in schemes
        assert "dai" not in schemes  # switch-placed: cannot replay
        assert variants == ()  # the traces axis supplies each cell's trace


class TestCliReplay:
    def run_cli(self, *argv):
        import io

        from repro.cli import main

        out = io.StringIO()
        code = main(list(argv), out=out)
        return code, out.getvalue()

    def test_synthetic_run_with_metrics_out(self, tmp_path):
        metrics = tmp_path / "metrics.prom"
        code, text = self.run_cli(
            "replay", "--synthetic", "frames=2000,churn=0.5",
            "--scheme", "arpwatch", "--metrics-out", str(metrics),
        )
        assert code == 0
        assert "2000 frames" in text
        assert "frames/sec" in text
        payload = metrics.read_text()
        assert "replay_frames_total" in payload
        assert "scheme_alerts_total" in payload

    def test_rate_flag_shorthand(self):
        code, text = self.run_cli(
            "replay", "--synthetic", "frames=1000", "--rate", "100k"
        )
        assert code == 0
        assert "rate=100000" in text

    def test_rate_conflict_rejected(self):
        with pytest.raises(SystemExit, match="not both"):
            self.run_cli(
                "replay", "--synthetic", "rate=1k", "--rate", "2k"
            )

    def test_pcap_run(self, tmp_path):
        path = tmp_path / "t.pcap"
        with PcapWriter(path) as writer:
            for ts, raw in SyntheticSource(frames=500, churn=0.5):
                writer.append_frame(ts, raw)
        code, text = self.run_cli("replay", "--pcap", str(path))
        assert code == 0
        assert "500 frames" in text

    def test_missing_pcap_is_a_clean_error(self):
        with pytest.raises(SystemExit, match="no such file"):
            self.run_cli("replay", "--pcap", "/does/not/exist.pcap")
