"""Offline replay end to end on a churned 100k-frame synthetic trace
under arpwatch: the metrics export, bounded memory, the same counts
from a pcap of the same stream at any window, window-independent alert
times, ``repro analyze`` listing what replay counts, and no process of
a pcap replay (its forked reader included) outliving the run.  Run with
``python -m pytest -m smoke tests/smoke/test_replay_smoke.py``."""

from __future__ import annotations

import os
import re
import subprocess
import sys

import pytest

from repro.analysis.pcap import PcapWriter
from repro.obs.export import parse_prometheus
from repro.replay import PcapSource, ReplayEngine
from repro.replay.sources import open_source
from repro.schemes import make_defense
from repro.sim import Simulator
from tests.smoke._cli import SRC, run_cli

pytestmark = pytest.mark.smoke

STREAM = "frames=100k,churn=0.3"


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """The synthetic replay's metrics and summary, and a pcap of the
    same stream."""
    path = tmp_path_factory.mktemp("replay-smoke")
    summary = run_cli(
        path,
        "replay", "--synthetic", STREAM, "--scheme", "arpwatch", "--seed", "7",
        "--metrics-out", "replay-metrics.prom",
    )
    (path / "replay-smoke.txt").write_text(summary)
    with PcapWriter(str(path / "replay-smoke.pcap")) as writer:
        for ts, raw in open_source(f"synthetic:{STREAM}"):
            writer.append_frame(ts, raw)
    return path


def test_synthetic_replay_exports_its_counts(workdir):
    summary = (workdir / "replay-smoke.txt").read_text()
    assert re.search(r"^replay: 100000 frames", summary, re.M)
    metrics = parse_prometheus((workdir / "replay-metrics.prom").read_text())
    frames = int(sum(metrics["replay_frames_total"].values()))
    assert frames == 100_000, frames
    alerts = int(sum(
        v for labels, v in metrics["scheme_alerts_total"].items()
        if dict(labels).get("scheme") == "arpwatch"
    ))
    assert alerts > 0, "churned trace raised no arpwatch alerts"
    peak = int(re.search(r"peak_in_flight=(\d+)", summary).group(1))
    window = int(re.search(r"window=(\d+)", summary).group(1))
    assert peak <= window, (peak, window)  # bounded-memory invariant
    print(f"replay smoke: {frames} frames, {alerts} alerts, "
          f"peak in-flight {peak}/{window}")


def _counts(text):
    frames = int(re.search(r"^replay: (\d+) frames", text, re.M).group(1))
    alerts = int(re.search(r"alerts=(\d+)", text).group(1))
    delivered = int(re.search(r"delivered=(\d+)", text).group(1))
    return frames, alerts, delivered


def test_pcap_replay_matches_synthetic_at_any_window(workdir):
    """The pcap record walk, with the capture filter inside it, must
    hand arpwatch exactly what the generator's windows do: same frame,
    alert and delivered counts.  The window bounds memory only, so
    ``--window 1`` must match all three."""
    replay = ("replay", "--pcap", "replay-smoke.pcap", "--scheme", "arpwatch", "--seed", "7")
    synthetic = _counts((workdir / "replay-smoke.txt").read_text())
    pcap = _counts(run_cli(workdir, *replay))
    assert synthetic == pcap, (synthetic, pcap)
    per_frame = _counts(run_cli(workdir, *replay, "--window", "1"))
    assert per_frame == pcap, (per_frame, pcap)
    print(f"pcap replay matches synthetic: {pcap[0]} frames, "
          f"{pcap[1]} alerts, {pcap[2]} delivered; --window 1 agrees")


def test_alert_times_do_not_depend_on_the_window(workdir):
    def alerts(window):
        engine = ReplayEngine(Simulator(seed=7), window=window)
        scheme = engine.install(make_defense("arpwatch"))
        engine.run(PcapSource(str(workdir / "replay-smoke.pcap")))
        return [(a.time, a.kind, str(a.ip), str(a.mac)) for a in scheme.alerts]

    narrow, wide = alerts(1), alerts(1024)
    assert narrow == wide and narrow, (len(narrow), len(wide))
    print(f"{len(wide)} arpwatch alerts, same times at windows 1 and 1024")


def test_analyze_lists_exactly_the_alerts_replay_counts(workdir):
    """``repro analyze`` is a replay of hybrid+snort-arpspoof."""
    report = run_cli(workdir, "analyze", "replay-smoke.pcap")
    stack = run_cli(
        workdir,
        "replay", "--pcap", "replay-smoke.pcap",
        "--scheme", "hybrid+snort-arpspoof", "--window", "1",
    )
    assert re.search(r"^frames: 100000 ", report, re.M), report[:200]
    findings = len(re.findall(r"^  \[", report, re.M))
    alerts = int(re.search(r"alerts=(\d+)", stack).group(1))
    assert findings == alerts > 0, (findings, alerts)
    print(f"analyze: {findings} findings == replay alerts")


def test_pcap_replay_leaves_no_process_behind(workdir):
    """Each run gets a session of its own, so its process group holds
    the CLI and the reader it forks.  Once the CLI has exited, on a good
    capture and on a truncated one, the group must be empty: probing it
    with signal 0 (which sends nothing) finds no process."""
    good = (workdir / "replay-smoke.pcap").read_bytes()
    (workdir / "replay-smoke-cut.pcap").write_bytes(good[:-5])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )}
    for capture, status in (("replay-smoke.pcap", 0), ("replay-smoke-cut.pcap", 1)):
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "replay", "--pcap", capture,
             "--scheme", "arpwatch"],
            cwd=workdir, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, start_new_session=True,
        )
        out, err = proc.communicate(timeout=600)
        assert proc.returncode == status, (capture, proc.returncode, err)
        if status:
            assert err.startswith("replay: pcap: truncated record body"), err
            assert err.count("\n") == 1, err
        else:
            assert re.search(r"^replay: 100000 frames", out, re.M), out
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)
    print("pcap replay, good and truncated: the run's process group is empty after exit")
