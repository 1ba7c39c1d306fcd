"""Tests for the command-line interface."""

from __future__ import annotations

import io

import pytest

from repro.cli import build_parser, main


def run_cli(*argv: str) -> str:
    out = io.StringIO()
    code = main(list(argv), out=out)
    assert code == 0
    return out.getvalue()


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_scheme(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["demo", "mitm", "--scheme", "magic"])

    def test_rejects_bad_table_number(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table", "9"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["trace", "--hosts", "0"],
            ["metrics", "--hosts", "0"],
            ["profile", "--hosts", "0"],
            ["campaign", "--hosts", "0"],
            ["campaign", "--seeds", "0"],
            ["campaign", "--jobs", "0"],
        ],
    )
    def test_rejects_counts_below_one(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv, out=io.StringIO())
        assert exc.value.code == 2
        assert f"argument {argv[1]}: must be at least 1, got 0" in (
            capsys.readouterr().err
        )


class TestCommands:
    def test_list_schemes(self):
        text = run_cli("list-schemes")
        assert "s-arp" in text
        assert "hybrid" in text
        assert "sdn-arp-guard" in text
        assert len(text.strip().splitlines()) == 14

    def test_table_1(self):
        text = run_cli("table", "1")
        assert "Table 1" in text
        assert "S-ARP" in text

    def test_table_1_csv(self):
        text = run_cli("table", "1", "--csv")
        assert text.startswith("Scheme,")
        assert len(text.strip().splitlines()) == 15

    def test_figure_3(self):
        text = run_cli("figure", "3")
        assert "resolution latency" in text
        assert "plain-arp" in text

    def test_demo_mitm_baseline(self):
        text = run_cli("demo", "mitm", "--duration", "10")
        assert "outcome=missed" in text

    def test_demo_mitm_with_scheme(self):
        text = run_cli("demo", "mitm", "--scheme", "dai", "--duration", "10")
        assert "outcome=prevented" in text

    def test_demo_dos(self):
        text = run_cli("demo", "dos", "--duration", "10")
        assert "service denied" in text

    def test_demo_dos_protected(self):
        text = run_cli("demo", "dos", "--scheme", "static-arp", "--duration", "10")
        assert "service survived" in text

    def test_demo_flood(self):
        text = run_cli("demo", "flood", "--duration", "3")
        assert "FAIL-OPEN" in text

    def test_demo_flood_with_port_security(self):
        text = run_cli("demo", "flood", "--scheme", "port-security", "--duration", "3")
        assert "holding" in text

    def test_demo_starvation(self):
        text = run_cli("demo", "starvation", "--duration", "20")
        assert "EXHAUSTED" in text

    def test_recommend(self):
        text = run_cli(
            "recommend", "--managed-switches", "--no-host-changes",
            "--infrastructure",
        )
        assert "dai" in text
        assert "Rejected:" in text

    def test_recommend_impossible(self):
        text = run_cli("recommend")
        assert "anticap" in text  # host schemes fit the default env

    def test_analyze_pcap(self, tmp_path):
        """Full loop: simulate an attack, export pcap, analyze via the CLI."""
        from repro import Lan, Simulator
        from repro.analysis.pcap import PcapWriter
        from repro.attacks import MitmAttack
        from repro.sim.trace import TraceRecorder
        from repro.stack import WINDOWS_XP

        sim = Simulator(seed=12)
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
        pcap = tmp_path / "incident.pcap"
        with PcapWriter(pcap) as writer:
            for record in monitor.recorder.records:
                writer.append(record)

        text = run_cli("analyze", str(pcap))
        assert "rebinding events:" in text
        assert "changed" in text or "flip-flop" in text


class TestBenchCommand:
    @pytest.fixture(autouse=True)
    def cheap_suite(self, monkeypatch):
        """Two real suite keys instead of all of them: the CLI plumbing is
        under test here, and the campus and replay cells take seconds."""
        from repro.perf import bench

        monkeypatch.setattr(bench, "SUITE", {
            name: bench.SUITE[name]
            for name in ("decode_frame_eager", "broadcast_flood_deliveries")
        })

    def test_update_then_check_roundtrip(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        text = run_cli("bench", "--quick", "--update", "--baseline", str(baseline))
        assert "broadcast_flood_deliveries" in text
        assert baseline.exists()

        text = run_cli(
            "bench", "--quick", "--check", "--baseline", str(baseline),
            "--tolerance", "0.05",
        )
        assert "bench check passed" in text
        assert "x baseline" in text  # ratio column rendered
        assert "# perf:" in text

    def test_check_without_baseline_fails(self, tmp_path):
        out = io.StringIO()
        code = main(
            ["bench", "--quick", "--check", "--baseline",
             str(tmp_path / "missing.json")],
            out=out,
        )
        assert code == 1
        assert "no baseline" in out.getvalue()

    def test_regression_detected(self, tmp_path):
        import json

        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps({
            "meta": {},
            "results": {"decode_frame_eager": 1e12},  # impossible bar
        }))
        out = io.StringIO()
        code = main(
            ["bench", "--quick", "--check", "--baseline", str(baseline)],
            out=out,
        )
        assert code == 1
        assert "REGRESSION decode_frame_eager" in out.getvalue()
