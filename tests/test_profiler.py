"""Tests for the sampling profiler and its subsystem attribution."""

from __future__ import annotations

import threading
import time

import pytest

from repro.errors import ObsError
from repro.obs.profiler import SamplingProfiler, classify_frame, classify_stack

SIM = "/site/repro/sim/simulator.py"
L2 = "/site/repro/l2/switch.py"
PKT = "/site/repro/packets/ethernet.py"
EXT = "/usr/lib/python3/heapq.py"


class TestClassifyFrame:
    @pytest.mark.parametrize(
        "filename, funcname, expected",
        [
            (SIM, "run", "sim-loop"),
            (L2, "on_frame", "switch-plane"),
            (L2, "on_frame_batch", "switch-plane"),
            ("/x/repro/l2/device.py", "deliver_batch", "switch-plane"),
            ("/x/repro/schemes/dai.py", "inspect", "scheme-hooks"),
            ("/x/repro/hooks/__init__.py", "dispatch", "scheme-hooks"),
            ("/x/repro/faults/injector.py", "carry", "fault-transforms"),
            ("/x/repro/sdn/controller.py", "packet_in", "sdn-control-plane"),
            ("/x/repro/stack/host.py", "on_arp", "host-stack"),
            (PKT, "encode", "codecs"),
            ("/x/repro/net/addresses.py", "parse", "codecs"),
            ("/x/repro/campaign/runner.py", "run", "campaign"),
            ("/x/repro/obs/live.py", "sample", "observability"),
            ("/x/repro/perf/__init__.py", "snapshot", "observability"),
            ("/x/repro/attacks/poison.py", "step", "workloads"),
            ("/x/repro/core/api.py", "run", "experiment"),
            ("/x/repro/cli.py", "main", "other-repro"),
            (EXT, "heappop", None),
        ],
    )
    def test_mapping(self, filename, funcname, expected):
        assert classify_frame(filename, funcname) == expected

    def test_windows_separators_normalised(self):
        assert classify_frame("C:\\env\\repro\\sim\\simulator.py", "run") == "sim-loop"


class TestClassifyStack:
    def test_innermost_repro_frame_wins(self):
        # A codec call made from the switch counts as codec time.
        stack = [(EXT, "len"), (PKT, "encode"), (L2, "on_frame"), (SIM, "run")]
        assert classify_stack(stack) == "codecs"

    def test_pure_external_stack(self):
        assert classify_stack([(EXT, "heappop"), (EXT, "heapify")]) == "external"


class TestSyntheticRecording:
    def test_attribution_and_fraction(self):
        prof = SamplingProfiler()
        for _ in range(3):
            prof.record([(SIM, "run")])
        prof.record([(EXT, "sleep")])
        assert prof.sample_count == 4
        assert prof.attribution()["sim-loop"] == pytest.approx(0.75)
        assert prof.attributed_fraction() == pytest.approx(0.75)

    def test_collapsed_is_root_first_folded_format(self):
        prof = SamplingProfiler()
        prof.record([(L2, "on_frame"), (SIM, "run")])  # innermost first
        prof.record([(L2, "on_frame"), (SIM, "run")])
        line = prof.collapsed().strip()
        assert line == "repro.sim.simulator:run;repro.l2.switch:on_frame 2"

    def test_collapsed_empty_when_no_samples(self):
        assert SamplingProfiler().collapsed() == ""

    def test_reset_clears_everything(self):
        prof = SamplingProfiler()
        prof.record([(SIM, "run")])
        prof.reset()
        assert prof.sample_count == 0
        assert prof.attribution() == {}
        assert prof.attributed_fraction() == 0.0


class TestLiveSampling:
    def test_samples_the_calling_thread(self):
        prof = SamplingProfiler(interval=0.001)
        started = time.perf_counter()
        with prof:
            deadline = time.monotonic() + 1.0
            while prof.sample_count < 3 and time.monotonic() < deadline:
                sum(range(2000))
        assert prof.sample_count >= 3
        assert not prof.running
        assert 0 < prof.elapsed <= time.perf_counter() - started

    def test_double_start_rejected(self):
        prof = SamplingProfiler(interval=0.05)
        prof.start()
        try:
            with pytest.raises(ObsError):
                prof.start()
        finally:
            prof.stop()

    def test_stop_is_idempotent(self):
        prof = SamplingProfiler(interval=0.05)
        prof.stop()
        prof.start()
        prof.stop()
        prof.stop()

    def test_unstarted_target_thread_rejected(self):
        prof = SamplingProfiler()
        with pytest.raises(ObsError):
            prof.start(target_thread=threading.Thread(target=lambda: None))

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ObsError):
            SamplingProfiler(interval=0.0)
        with pytest.raises(ObsError):
            SamplingProfiler(max_depth=0)
