"""Round-trip tests for the obs exporters and their CLI surface."""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.errors import ObsError
from repro.obs.export import (
    parse_jsonl,
    parse_prometheus,
    to_chrome_trace,
    to_jsonl,
    to_prometheus,
)
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import TRACER, ObsEvent


@pytest.fixture(autouse=True)
def clean_global_tracer():
    TRACER.disable()
    TRACER.reset()
    yield
    TRACER.disable()
    TRACER.reset()


def _events():
    return [
        ObsEvent("sim.event", 1.0, 0.5, "span", {"event": "tick"}),
        ObsEvent("switch.forward", 1.25, 0.0, "span",
                 {"node": "sw0", "frame": 3}),
        ObsEvent("scheme.alert", 2.0, None, "instant",
                 {"node": "ids", "scheme": "dai", "frame": 3}),
    ]


class TestChromeTrace:
    def test_schema(self):
        doc = to_chrome_trace(_events())
        events = doc["traceEvents"]
        assert doc["displayTimeUnit"] == "ms"
        spans = [e for e in events if e["ph"] == "X"]
        instants = [e for e in events if e["ph"] == "i"]
        metadata = [e for e in events if e["ph"] == "M"]
        assert len(spans) == 2 and len(instants) == 1
        # Timestamps and durations are microseconds.
        assert spans[0]["ts"] == 1.0e6 and spans[0]["dur"] == 0.5e6
        assert instants[0]["s"] == "t"
        for e in spans + instants:
            assert e["pid"] == 1 and isinstance(e["tid"], int)
            assert e["cat"] == e["name"].split(".", 1)[0]
        # Every track gets a thread_name metadata record.
        named = {m["args"]["name"] for m in metadata}
        assert named == {"sim", "sw0", "ids"}

    def test_tracks_group_by_device(self):
        doc = to_chrome_trace(_events())
        by_name = {e["name"]: e for e in doc["traceEvents"] if e["ph"] != "M"}
        assert by_name["switch.forward"]["tid"] != by_name["sim.event"]["tid"]

    def test_provenance_embedded(self):
        TRACER.provenance.new_frame(b"x", "attack:arp-poison/reply", 1.0)
        doc = to_chrome_trace(_events(), TRACER.provenance.frames)
        assert doc["frameProvenance"]["1"]["origin"] == "attack:arp-poison/reply"
        assert doc["frameProvenance"]["1"]["parent"] is None

    def test_output_is_json_serializable(self):
        json.dumps(to_chrome_trace(_events()))


class TestJsonl:
    def test_round_trip_is_lossless(self):
        text = to_jsonl(_events())
        assert text.endswith("\n")
        parsed = parse_jsonl(text)
        assert [tuple(e) for e in parsed] == [tuple(e) for e in _events()]

    def test_empty_input(self):
        assert to_jsonl([]) == ""
        assert parse_jsonl("") == []

    def test_bad_line_raises(self):
        with pytest.raises(ObsError):
            parse_jsonl("not json\n")
        with pytest.raises(ObsError):
            parse_jsonl('{"name": "x"}\n')


class TestPrometheus:
    def _snapshot(self):
        reg = MetricsRegistry()
        reg.counter("alerts_total", "alerts", labels=("scheme",)).labels(
            scheme="dai"
        ).inc(4)
        reg.gauge("cache_size").set(12)
        h = reg.histogram("lat_seconds", buckets=(0.5, 1.0))
        h.observe(0.2)
        h.observe(0.7)
        h.observe(2.0)
        reg.register_collector("perf", lambda: {"packet-encodes": 9})
        return reg.snapshot()

    def test_text_format(self):
        text = to_prometheus(self._snapshot())
        assert '# TYPE alerts_total counter' in text
        assert 'alerts_total{scheme="dai"} 4' in text
        assert '# TYPE lat_seconds histogram' in text
        # Buckets are cumulative and end at +Inf.
        assert 'lat_seconds_bucket{le="0.5"} 1' in text
        assert 'lat_seconds_bucket{le="1"} 2' in text
        assert 'lat_seconds_bucket{le="+Inf"} 3' in text
        assert 'lat_seconds_count 3' in text
        # Collector keys are sanitized into metric names.
        assert 'repro_perf_packet_encodes 9' in text

    def test_reparse_recovers_values(self):
        parsed = parse_prometheus(to_prometheus(self._snapshot()))
        assert parsed["alerts_total"][(("scheme", "dai"),)] == 4.0
        assert parsed["cache_size"][()] == 12.0
        assert parsed["lat_seconds_bucket"][(("le", "+Inf"),)] == 3.0
        assert parsed["lat_seconds_count"][()] == 3.0
        assert parsed["repro_perf_packet_encodes"][()] == 9.0

    def test_label_values_are_escaped(self):
        reg = MetricsRegistry()
        reg.counter("c_total", labels=("k",)).labels(k='has "quotes"').inc()
        text = to_prometheus(reg.snapshot())
        parsed = parse_prometheus(text)
        assert parsed["c_total"][(("k", 'has "quotes"'),)] == 1.0

    def test_inf_bound_formatting(self):
        text = to_prometheus(self._snapshot())
        assert 'le="+Inf"' in text
        assert "inf}" not in text  # no bare float repr of infinity
        bounds = parse_prometheus(text)["lat_seconds_bucket"]
        assert (("le", "+Inf"),) in bounds


class TestDeterminism:
    def _trace_run(self):
        from repro.core.api import run
        from repro.core.experiment import ScenarioConfig

        TRACER.reset()
        TRACER.enable()
        config = ScenarioConfig(seed=11, n_hosts=3, attack_duration=6.0,
                                warmup=2.0, cooldown=1.0)
        try:
            run("effectiveness", config, scheme="dai", technique="reply")
        finally:
            TRACER.disable()
        chrome = json.dumps(
            to_chrome_trace(list(TRACER.events), TRACER.provenance.frames),
            sort_keys=True,
        )
        return chrome, to_jsonl(list(TRACER.events))

    def test_fixed_seed_exports_are_byte_identical(self):
        chrome_a, jsonl_a = self._trace_run()
        chrome_b, jsonl_b = self._trace_run()
        assert chrome_a == chrome_b
        assert jsonl_a == jsonl_b


class TestObsCli:
    #: One small fixed-seed DAI cell under the reply technique.
    CELL = ("run", "effectiveness", "--scheme", "dai", "--set", "n_hosts=3",
            "--set", "attack_duration=6", "--set", "warmup=3",
            "--set", "cooldown=2")

    def run_cli(self, *argv: str) -> str:
        out = io.StringIO()
        assert main([*self.CELL, *argv], out=out) == 0
        return out.getvalue()

    def test_trace_chrome_file(self, tmp_path):
        out = tmp_path / "trace.json"
        text = self.run_cli("--trace-out", str(out))
        assert json.loads(text.splitlines()[0])["prevented"]
        assert text.splitlines()[1].startswith("# trace: ")
        assert text.splitlines()[1].endswith(f" in {out}")
        doc = json.loads(out.read_text())
        assert doc["traceEvents"]
        assert doc["frameProvenance"]
        # Tracing is switched back off after the command.
        assert not TRACER.enabled

    def test_trace_jsonl_file(self, tmp_path):
        out = tmp_path / "trace.jsonl"
        text = self.run_cli("--trace-out", str(out))
        assert "# alerts: 2 raised, 2 with provenance" in text
        events = parse_jsonl(out.read_text())
        assert any(e.name == "scheme.alert" for e in events)

    def test_metrics_prometheus(self, tmp_path):
        out = tmp_path / "metrics.prom"
        self.run_cli("--metrics-out", str(out))
        parsed = parse_prometheus(out.read_text())
        assert any(n.startswith("scheme_alerts_total") for n in parsed)
        assert any(n.startswith("repro_perf_") for n in parsed)

    def test_metrics_json(self, tmp_path):
        out = tmp_path / "metrics.json"
        self.run_cli("--metrics-out", str(out))
        snap = json.loads(out.read_text())
        assert "metrics" in snap and "collectors" in snap

    def test_metrics_count_the_run_not_the_process(self, tmp_path):
        """Modules imported before the run do not move its GC counts."""
        package_root = str(Path(repro.__file__).parent.parent)

        def gc_runs(prelude: str) -> list:
            out = tmp_path / "metrics.json"
            argv = [*self.CELL, "--set", "attack_duration=60", "--metrics-out", str(out)]
            subprocess.run(
                [sys.executable, "-c",
                 f"{prelude}\nfrom repro.cli import main\nmain({argv!r})"],
                env={**os.environ, "PYTHONPATH": package_root},
                capture_output=True, check=True,
            )
            perf = json.loads(out.read_text())["collectors"]["perf"]
            return [perf[f"gc_gen{generation}"] for generation in range(3)]

        plain = gc_runs("pass")
        after_import = gc_runs("import multiprocessing")
        assert all(abs(a - b) <= 1 for a, b in zip(plain, after_import)), (
            plain, after_import,
        )

    def test_sinks_combine(self, tmp_path):
        paths = {
            flag: tmp_path / name
            for flag, name in (
                ("--trace-out", "t.json"), ("--metrics-out", "m.prom"),
                ("--profile-out", "p.folded"), ("--telemetry-out", "s.jsonl"),
            )
        }
        text = self.run_cli(*(a for f, p in paths.items() for a in (f, str(p))))
        lines = text.splitlines()
        assert json.loads(lines[0])["kind"] == "EffectivenessResult"
        assert all(line.startswith("# ") for line in lines[1:])
        for prefix in ("trace", "alerts", "profile", "subsystems",
                       "attributed", "telemetry", "metrics"):
            assert any(line.startswith(f"# {prefix}: ") for line in lines), prefix
        assert all(path.exists() for path in paths.values())
        assert not TRACER.enabled
