"""Tests for live run telemetry (repro.obs.live)."""

from __future__ import annotations

import json
import os

import pytest

from repro.core.api import run
from repro.core.experiment import ScenarioConfig
from repro.errors import ObsError
from repro.obs import live
from repro.obs.live import (
    BEACON,
    DEFAULT_CADENCE_EVENTS,
    TelemetryRecorder,
    read_series,
    validate_snapshot,
)
from repro.sim.simulator import Simulator


@pytest.fixture(autouse=True)
def no_default_recorder():
    """Keep the process-default recorder clear for the rest of the suite."""
    live.uninstall()
    yield
    live.uninstall()


def _busy_sim(seed: int = 1) -> Simulator:
    """A simulator with a self-rescheduling tick so events keep firing."""
    sim = Simulator(seed=seed)

    def tick():
        if sim.now < 100.0:
            sim.schedule(1.0, tick, name="tick")

    sim.schedule(1.0, tick, name="tick")
    return sim


class TestRecorderConstruction:
    def test_defaults_to_event_cadence(self):
        rec = TelemetryRecorder()
        assert rec.cadence_events == DEFAULT_CADENCE_EVENTS
        assert rec.cadence_wall is None

    def test_rejects_bad_cadences_and_capacity(self):
        with pytest.raises(ObsError):
            TelemetryRecorder(cadence_events=0)
        with pytest.raises(ObsError):
            TelemetryRecorder(cadence_wall=0.0)
        with pytest.raises(ObsError):
            TelemetryRecorder(capacity=0)


class TestEventCadence:
    def test_samples_every_n_events_plus_run_end(self):
        rec = TelemetryRecorder(cadence_events=10, include_metrics=False)
        sim = _busy_sim()
        rec.attach(sim)
        sim.run(until=35.0)
        reasons = [s["reason"] for s in rec.snapshots]
        assert reasons[0] == "attach"
        assert reasons[-1] == "run-end"
        cadence = [s for s in rec.snapshots if s["reason"] == "cadence"]
        assert [s["events"] for s in cadence] == [10, 20, 30]

    def test_no_duplicate_run_end_when_nothing_fired(self):
        rec = TelemetryRecorder(cadence_events=10, include_metrics=False)
        sim = _busy_sim()
        rec.attach(sim)
        sim.run(until=5.0)
        before = len(rec.snapshots)
        sim.run(until=5.0)  # clock fill only, no events
        assert len(rec.snapshots) == before

    def test_cadence_marks_hold_across_runs(self):
        rec = TelemetryRecorder(cadence_events=10, include_metrics=False)
        sim = _busy_sim()
        rec.attach(sim)
        for until in (7.0, 13.0, 29.5, 30.0, 52.0):
            sim.run(until=until)
        cadence = [s["events"] for s in rec.snapshots if s["reason"] == "cadence"]
        assert cadence == [10, 20, 30, 40, 50]

    def test_step_ticks_every_event(self):
        rec = TelemetryRecorder(cadence_events=3, include_metrics=False)
        sim = _busy_sim()
        rec.attach(sim)
        for _ in range(7):
            assert sim.step()
        cadence = [s["events"] for s in rec.snapshots if s["reason"] == "cadence"]
        assert cadence == [3, 6]

    def test_run_end_reports_until_on_every_engine(self):
        """The run-end row lands after the clock fill, so a plain and a
        one-partition sharded run both report ``t_sim == until``."""
        from repro.sim import ShardedSimulator

        plain_rec = TelemetryRecorder(include_metrics=False)
        plain = Simulator(seed=1)
        plain_rec.attach(plain)
        plain.schedule_at(1.0, lambda: None)
        plain.run(until=5.0)

        sharded_rec = TelemetryRecorder(include_metrics=False)
        fabric = ShardedSimulator(seed=1)
        sharded_rec.attach(fabric)
        fabric.add_partition("only").schedule_at(1.0, lambda: None)
        fabric.run(until=5.0)

        for rec in (plain_rec, sharded_rec):
            assert rec.snapshots[-1]["reason"] == "run-end"
            assert rec.snapshots[-1]["t_sim"] == 5.0

    def test_untelemetered_simulator_is_untouched(self):
        sim = _busy_sim()
        assert sim.telemetry is None
        sim.run(until=20.0)
        assert sim.telemetry is None


class TestWallCadence:
    def test_wall_cadence_throttles_with_injected_clock(self):
        now = [0.0]
        rec = TelemetryRecorder(
            cadence_events=5, cadence_wall=10.0,
            include_metrics=False, clock=lambda: now[0],
        )
        sim = _busy_sim()
        rec.attach(sim)
        sim.run(until=30.0)  # many stride marks, clock frozen
        assert not [s for s in rec.snapshots if s["reason"] == "cadence"]
        now[0] = 50.0
        sim.run(until=60.0)
        assert [s for s in rec.snapshots if s["reason"] == "cadence"]


class TestRingAndBeacon:
    def test_ring_evicts_and_counts_drops(self):
        rec = TelemetryRecorder(cadence_events=5, capacity=4, include_metrics=False)
        sim = _busy_sim()
        rec.attach(sim)
        sim.run(until=30.0)
        assert len(rec.snapshots) == 4
        assert rec.dropped == rec.seq - 4 > 0

    def test_beacon_tracks_progress(self):
        rec = TelemetryRecorder(cadence_events=5, include_metrics=False)
        sim = _busy_sim()
        rec.attach(sim)
        sim.run(until=25.0)
        snap = BEACON.snapshot()
        assert snap["pid"] == os.getpid()
        assert snap["events"] == sim.events_processed
        assert snap["t_sim"] == sim.now


class TestSnapshotContents:
    def test_perf_section_is_per_window_delta(self):
        rec = TelemetryRecorder(cadence_events=10, include_metrics=False)
        sim = _busy_sim()
        rec.attach(sim)
        sim.run(until=35.0)
        for snap in rec.snapshots:
            validate_snapshot(snap)
            assert set(snap["batch"]) == {"flushes", "items", "coalesce_rate"}
        # A pure-timer run has no batched wire traffic in any window.
        assert all(s["batch"]["flushes"] == 0 for s in rec.snapshots)

    def test_snapshot_counter_does_not_pollute_metrics_window(self):
        rec = TelemetryRecorder(cadence_events=10, include_metrics=True)
        sim = _busy_sim()
        rec.attach(sim)
        sim.run(until=35.0)
        for snap in list(rec.snapshots)[1:]:
            families = snap["metrics"].get("metrics", {})
            # The recorder's own bump is re-baselined away after each
            # sample; a window never shows more than the one bump that
            # closes it.
            total = sum(
                child.get("value", 0.0)
                for child in families.get("telemetry_snapshots_total", {}).get(
                    "children", {}
                ).values()
            )
            assert total <= 1.0

    def test_validate_snapshot_rejects_malformed(self):
        with pytest.raises(ObsError):
            validate_snapshot({"seq": 0})
        rec = TelemetryRecorder(include_metrics=False)
        sim = _busy_sim()
        rec.attach(sim)
        good = dict(rec.snapshots[0])
        good["events"] = -1
        with pytest.raises(ObsError):
            validate_snapshot(good)


class TestJsonlStream:
    def test_streams_valid_series(self, tmp_path):
        out = tmp_path / "series.jsonl"
        rec = TelemetryRecorder(cadence_events=10, out=out, include_metrics=False)
        sim = _busy_sim()
        rec.attach(sim)
        sim.run(until=35.0)
        rec.close()
        series = read_series(out.read_text())
        assert len(series) == len(rec.snapshots) == rec.written
        assert [s["seq"] for s in series] == list(range(len(series)))

    def test_close_is_idempotent_and_reopens_append(self, tmp_path):
        out = tmp_path / "series.jsonl"
        rec = TelemetryRecorder(cadence_events=10, out=out, include_metrics=False)
        sim = _busy_sim()
        rec.attach(sim)
        sim.run(until=15.0)
        rec.close()
        rec.close()
        first = len(out.read_text().splitlines())
        sim.run(until=35.0)
        rec.close()
        assert len(out.read_text().splitlines()) > first
        read_series(out.read_text())

    def test_read_series_rejects_non_monotone_seq(self):
        line = json.dumps(
            {
                "seq": 5, "pid": 1, "reason": "cadence", "t_wall": 1.0,
                "t_sim": 1.0, "events": 10, "pending": 0,
                "batch": {}, "perf": {},
            }
        )
        with pytest.raises(ObsError):
            read_series(line + "\n" + line)

    def test_read_series_allows_interleaved_pids(self):
        def snap(pid, seq):
            return json.dumps(
                {
                    "seq": seq, "pid": pid, "reason": "cadence", "t_wall": 1.0,
                    "t_sim": 1.0, "events": 10, "pending": 0,
                    "batch": {}, "perf": {},
                }
            )

        text = "\n".join([snap(1, 0), snap(2, 0), snap(1, 1), snap(2, 1)])
        assert len(read_series(text)) == 4


class TestInstallAndSession:
    def test_installed_recorder_attaches_to_new_simulators(self):
        rec = TelemetryRecorder(cadence_events=10, include_metrics=False)
        live.install(rec)
        try:
            sim = Simulator(seed=3)
            assert sim.telemetry is rec
            assert [s["reason"] for s in rec.snapshots] == ["attach"]
        finally:
            live.uninstall()
        assert Simulator(seed=4).telemetry is None

    def test_session_restores_previous_default(self):
        outer = TelemetryRecorder(include_metrics=False)
        live.install(outer)
        inner = TelemetryRecorder(include_metrics=False)
        with live.session(inner):
            assert live.default_recorder() is inner
        assert live.default_recorder() is outer

    def test_api_run_with_telemetry_records_a_series(self):
        rec = TelemetryRecorder(cadence_events=50, include_metrics=False)
        config = ScenarioConfig(seed=7, n_hosts=3, attack_duration=6.0,
                                warmup=2.0, cooldown=1.0)
        run("effectiveness", config, scheme="dai", technique="reply",
            telemetry=rec)
        assert rec.seq >= 2  # at least attach + run-end
        reasons = {s["reason"] for s in rec.snapshots}
        assert "attach" in reasons and "run-end" in reasons
        assert live.default_recorder() is None  # session restored


class TestPartitionedHeapDepth:
    """Snapshots of a sharded fabric aggregate heap depth across
    partitions (sum + per-partition breakdown); plain simulators are
    unchanged."""

    def test_sharded_snapshot_sums_and_breaks_down(self):
        from repro.sim import ShardedSimulator

        fabric = ShardedSimulator(seed=1)
        left = fabric.add_partition("left")
        right = fabric.add_partition("right")
        left.schedule_at(0.5, lambda: None)
        right.schedule_at(0.5, lambda: None)
        right.schedule_at(0.6, lambda: None)
        rec = TelemetryRecorder(include_metrics=False)
        snap = rec.sample(fabric)
        assert snap["heap_depth"] == 3
        assert snap["heap_depth_by_partition"] == {"left": 1, "right": 2}
        validate_snapshot(snap)

    def test_plain_simulator_has_no_breakdown(self):
        rec = TelemetryRecorder(include_metrics=False)
        sim = Simulator(seed=1)
        sim.schedule_at(0.5, lambda: None)
        snap = rec.sample(sim)
        assert snap["heap_depth"] == 1
        assert "heap_depth_by_partition" not in snap
        validate_snapshot(snap)


class TestTelemetryIsReadOnly:
    """Attaching a recorder must not change a run: the simulator's one
    event loop merely stops at cadence marks to tick it."""

    @staticmethod
    def _mitm(monkeypatch, batching, telemetry):
        import repro.sim.simulator as simulator
        from repro.core import experiment
        from repro.sim.trace import TraceRecorder

        monkeypatch.setattr(simulator, "DEFAULT_BATCHING", batching)
        scenarios = []
        build = experiment.Scenario.__init__

        def capture(self, config):
            build(self, config)
            for link in self.lan.links:
                link.recorder = TraceRecorder()
            for device in [*self.lan.hosts.values(), self.lan.switch]:
                device.recorder = TraceRecorder()
            scenarios.append(self)

        monkeypatch.setattr(experiment.Scenario, "__init__", capture)
        config = ScenarioConfig(seed=11, n_hosts=4, attack_duration=4.0,
                                warmup=1.0, cooldown=1.0)
        result = run("effectiveness", config, scheme="dai+arpwatch",
                     technique="reply", faults="loss=0.1,jitter=1ms",
                     telemetry=telemetry)
        monkeypatch.undo()
        (scenario,) = scenarios
        lan = scenario.lan
        return {
            "result": result.to_dict(),
            "links": [list(link.recorder) for link in lan.links],
            "devices": [list(h.recorder) for h in lan.hosts.values()]
            + [list(lan.switch.recorder)],
            "arp": {name: list(h.arp_cache) for name, h in lan.hosts.items()},
            "cam": list(lan.switch.cam),
            "events": scenario.sim.events_processed,
        }

    @pytest.mark.parametrize("batching", [True, False])
    def test_recorder_leaves_the_run_unchanged(self, monkeypatch, batching):
        bare = self._mitm(monkeypatch, batching, None)
        rec = TelemetryRecorder(cadence_events=7, include_metrics=True)
        watched = self._mitm(monkeypatch, batching, rec)
        assert [s["reason"] for s in rec.snapshots].count("cadence") > 10
        assert bare["events"] > 0 and any(bare["links"])
        assert watched == bare
