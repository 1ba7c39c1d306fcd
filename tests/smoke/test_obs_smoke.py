"""The observability sinks end to end: a fixed-seed trace whose alerts
resolve to the attack's frames, the metrics and replay metrics exports,
a campaign's live telemetry (schema-checked, and read-only: the tables
match a run without it) and the sampling profiler.  Run with
``python -m pytest -m smoke tests/smoke/test_obs_smoke.py``."""

from __future__ import annotations

import json
import re

import pytest

from repro.obs.export import parse_prometheus
from repro.obs.live import REQUIRED_KEYS, read_series
from tests.smoke._cli import run_cli

pytestmark = pytest.mark.smoke

#: A short dai cell under the reply technique.
CELL = (
    "run", "effectiveness", "--scheme", "dai",
    "--set", "technique=reply", "--set", "n_hosts=4",
    "--set", "warmup=3", "--set", "cooldown=2",
)
#: A lossy two-seed campaign of two monitor-placed schemes.
CAMPAIGN = (
    "campaign", "--schemes", "dai,arpwatch",
    "--techniques", "reply", "--seeds", "2", "--hosts", "3", "--duration", "6",
    "--faults", "loss=0.1,jitter=1ms", "--no-cache", "--csv",
)


def test_trace_alerts_resolve_to_the_attack_and_metrics_export(tmp_path):
    run_cli(tmp_path, *CELL, "--set", "attack_duration=12", "--trace-out", "obs-trace.json")
    run_cli(
        tmp_path, *CELL, "--set", "attack_duration=12", "--metrics-out", "obs-metrics.prom"
    )

    doc = json.loads((tmp_path / "obs-trace.json").read_text())
    events = doc["traceEvents"]
    assert events, "empty trace"
    assert all("ph" in e and "pid" in e and "tid" in e for e in events)
    assert any(e["name"] == "scheme.alert" for e in events)
    prov = doc["frameProvenance"]
    alerts = [e for e in events if e["name"] == "scheme.alert"]

    def origin(fid):
        while fid is not None:
            rec = prov[str(fid)]
            if rec["parent"] is None:
                return rec["origin"]
            fid = rec["parent"]

    resolved = [origin(e["args"]["frame"]) for e in alerts
                if e["args"].get("frame") is not None]
    assert any(o and o.startswith("attack:") for o in resolved), resolved

    metrics = parse_prometheus((tmp_path / "obs-metrics.prom").read_text())
    assert any(n.startswith("scheme_alerts_total") for n in metrics)
    assert any(n.startswith("repro_perf_") for n in metrics)
    print(f"trace: {len(events)} events, "
          f"{len(alerts)} alerts resolving to {sorted(set(resolved))}")


def test_replay_metrics_sink(tmp_path):
    run_cli(
        tmp_path,
        "replay", "--synthetic", "frames=20000", "--scheme", "arpwatch",
        "--metrics-out", "replay.prom",
    )
    lines = (tmp_path / "replay.prom").read_text().splitlines()
    assert 'replay_frames_total{source="synthetic"} 20000' in lines
    assert any(line.startswith("scheme_alerts_total{") for line in lines)


def test_live_telemetry_is_read_only_and_keeps_its_schema(tmp_path):
    told = run_cli(
        tmp_path, *CAMPAIGN,
        "--telemetry-out", "obs-telemetry.jsonl", "--telemetry-cadence", "500",
        "--heartbeat-dir", ".obs-heartbeats",
    )
    assert re.search(r"^# telemetry:", told, re.M)
    assert re.search(r"^# watchdog:", told, re.M)
    plain = run_cli(tmp_path, *CAMPAIGN, "--heartbeat-dir", ".obs-heartbeats-plain")

    def tables(text):
        return [line for line in text.splitlines() if not line.startswith("#")]

    assert tables(told) == tables(plain)

    # read_series enforces REQUIRED_KEYS on every line plus
    # per-pid monotone seq / t_wall; it raises ObsError on drift.
    series = read_series((tmp_path / "obs-telemetry.jsonl").read_text())
    assert len(series) >= 3, f"only {len(series)} snapshots"
    reasons = {s["reason"] for s in series}
    assert "attach" in reasons and "run-end" in reasons, reasons
    assert all(REQUIRED_KEYS <= set(s) for s in series)
    # The perf sections hold counts only: a rate there would be
    # subtracted per window and summed on merge into nonsense.
    for s in series:
        sections = {"perf": s["perf"]}
        collectors = s.get("metrics", {}).get("collectors", {})
        if "perf" in collectors:
            sections["metrics.collectors.perf"] = collectors["perf"]
        for where, section in sections.items():
            bad = {k: v for k, v in section.items()
                   if type(v) is not int or v < 0}
            assert not bad, f"seq {s['seq']} pid {s['pid']} {where}: {bad}"
    print(f"telemetry: {len(series)} snapshots, "
          f"{len({s['pid'] for s in series})} pid(s), reasons={sorted(reasons)}")


def test_profiler_attributes_its_samples(tmp_path):
    printed = run_cli(
        tmp_path, *CELL, "--set", "attack_duration=360",
        "--profile-out", "obs-profile.folded",
    )
    samples = 0
    for line in (tmp_path / "obs-profile.folded").read_text().splitlines(True):
        assert re.fullmatch(r"\S.*? \d+", line.rstrip()), line
        samples += int(line.rsplit(" ", 1)[1])
    assert samples >= 10, f"only {samples} samples collected"
    attributed = re.search(
        r"# attributed: ([\d.]+)% of samples",
        printed)
    assert attributed and float(attributed.group(1)) >= 90.0, \
        attributed.group(0) if attributed else "no attribution line"
    print(f"profile: {samples} samples, {attributed.group(1)}% attributed")
