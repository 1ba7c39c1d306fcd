"""The pcap source's forked reader against the in-process walk.

Where ``os.fork`` exists, ``PcapSource.windows`` walks the capture in a
reader process and streams each window over a pipe.  These tests hold
that path to the in-process walk (forced by removing ``os.fork``) on
every replay output, hold its errors to the walk's, and check that no
reader outlives the stream however the stream ends.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.campaign import CampaignSpec, run_campaign
from repro.errors import PcapError
from repro.replay import PcapSource, ReplayEngine
from repro.replay.sources import open_source
from repro.schemes import make_defense
from repro.schemes.arpwatch import ArpWatch
from repro.sim import Simulator
from tests.test_pcap_windows import write_capture

SRC = Path(__file__).resolve().parents[1] / "src"

STREAM = "synthetic:frames=4000,churn=0.3,hosts=16,seed=3"


def _records():
    """``STREAM`` as ``(micros, frame)`` records from t=1 s, every
    seventh frame stamped 20 ms early so the capture runs backwards."""
    return [
        (1_000_000 + round(ts * 1_000_000) - (20_000 if i % 7 == 3 else 0), raw)
        for i, (ts, raw) in enumerate(open_source(STREAM))
    ]


@pytest.fixture(scope="module", params=["little", "big"])
def capture(request, tmp_path_factory):
    path = tmp_path_factory.mktemp("read-ahead") / f"{request.param}.pcap"
    path.write_bytes(write_capture(_records(), big_endian=request.param == "big"))
    return path


@pytest.fixture
def forks(monkeypatch):
    """The pids of the readers forked while the test runs."""
    pids = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


def _reaped(pid: int) -> bool:
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def _replay(path, window, floor):
    """Every output of one arpwatch replay, wall time aside."""
    engine = ReplayEngine(Simulator(seed=1), window=window)
    scheme = engine.install(make_defense("arpwatch"))
    if floor:
        engine.sim.advance_to(floor)
    stats = engine.run(PcapSource(path))
    del stats["wall_seconds"]
    alerts = [(a.time, a.kind, str(a.ip), str(a.mac)) for a in scheme.alerts]
    return stats, alerts


@pytest.mark.parametrize("window", (1, 64, 1024))
@pytest.mark.parametrize("floor", (0.0, 1.01))
def test_forked_reader_replays_like_the_in_process_walk(
    capture, window, floor, forks, monkeypatch
):
    forked = _replay(capture, window, floor)
    assert len(forks) == 1
    monkeypatch.delattr(os, "fork")
    in_process = _replay(capture, window, floor)
    assert forked == in_process
    stats, alerts = forked
    assert stats["frames"] == 4000 and stats["skew"] > 0 and alerts


@pytest.mark.parametrize("filtered", (True, False))
def test_forked_windows_equal_the_in_process_windows(capture, filtered, monkeypatch):
    floor = 1.005
    forked = list(PcapSource(capture).windows(100, floor, filtered))
    monkeypatch.delattr(os, "fork")
    assert list(PcapSource(capture).windows(100, floor, filtered)) == forked
    assert sum(win.frames for win in forked) == 4000


def _until_error(stream):
    """The windows ``stream`` yields, and the text of the error it ends in."""
    windows = []
    try:
        for win in stream:
            windows.append(win)
    except PcapError as exc:
        return windows, str(exc)
    return windows, None


@pytest.mark.parametrize("cut", (3, 10, 30_000, 100_000))
def test_truncated_capture_fails_after_the_same_windows(capture, cut, forks, monkeypatch, tmp_path):
    path = tmp_path / "cut.pcap"
    path.write_bytes(capture.read_bytes()[:-cut])
    forked = _until_error(PcapSource(path).windows(256))
    assert forks and all(map(_reaped, forks))
    monkeypatch.delattr(os, "fork")
    in_process = _until_error(PcapSource(path).windows(256))
    assert forked == in_process
    windows, error = forked
    assert windows and error.startswith("pcap: truncated record")


def test_bad_window_is_raised_before_any_fork(capture, forks):
    with pytest.raises(ValueError, match="window"):
        next(PcapSource(capture).windows(0))
    assert forks == []


def test_closing_the_stream_mid_way_reaps_the_reader(capture, forks):
    source = PcapSource(capture)
    stream = source.windows(16)
    next(stream)
    stream.close()
    assert len(forks) == 1 and _reaped(forks[0])
    assert source.frames_read == 16


class _FailingArpwatch(ArpWatch):
    """Arpwatch whose timer fails 30 ms into the capture."""

    def install(self, lan, protected=None):
        super().install(lan, protected)
        lan.sim.schedule_at(1.03, self._fail)

    def _fail(self):
        raise RuntimeError("scheme failed mid-run")


def test_a_scheme_raising_mid_run_reaps_the_reader(capture, forks):
    with ReplayEngine(Simulator(seed=1), window=64) as engine:
        engine.install(_FailingArpwatch())
        with pytest.raises(RuntimeError, match="mid-run"):
            engine.run(PcapSource(capture))
        assert len(forks) == 1 and _reaped(forks[0])


def test_campaign_workers_replay_like_a_serial_campaign(capture):
    """Daemonic campaign workers may fork their readers."""
    spec = CampaignSpec(
        experiment="replay", schemes=("arpwatch", "snort-arpspoof"),
        traces=(f"pcap:{capture}",), seeds=1,
    )

    def outputs(jobs):
        result = run_campaign(spec, jobs=jobs)
        assert not result.failures
        return {
            key: {k: v for k, v in payload.items() if k != "wall_seconds"}
            for key, payload in result.results.items()
        }

    serial = outputs(1)
    assert len(serial) == 2
    assert outputs(2) == serial


def test_replay_imports_neither_multiprocessing_nor_pickle(capture):
    code = (
        "import sys\n"
        "from repro.core import api\n"
        "before = set(sys.modules)\n"
        f"result = api.run('replay', source={f'pcap:{capture}'!r}, scheme='arpwatch')\n"
        "assert result.frames == 4000, result.frames\n"
        "print(sorted({'multiprocessing', 'pickle'} & (set(sys.modules) - before)))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120,
    )
    assert done.stdout.strip() == "[]", done.stderr


def test_a_stream_read_to_its_end_reaps_the_reader(capture, forks):
    windows = list(PcapSource(capture).windows(1024, 0.0, False))
    assert sum(len(win.kept) for win in windows) == 4000
    assert len(forks) == 1 and _reaped(forks[0])
