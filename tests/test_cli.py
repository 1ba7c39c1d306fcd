"""Tests for the command-line interface."""

from __future__ import annotations

import importlib.util
import io
import json
import pathlib

import pytest

from repro.campaign.spec import CampaignTask, execute_task
from repro.cli import build_parser, main
from repro.core.api import KINDS
from repro.core.experiment import result_from_dict


def run_cli(*argv: str) -> str:
    out = io.StringIO()
    code = main(list(argv), out=out)
    assert code == 0
    return out.getvalue()


def run_result(*argv: str) -> dict:
    """``repro run``'s result: the JSON object on the first stdout line."""
    return json.loads(run_cli("run", *argv).splitlines()[0])


def l2_demos():
    """examples/l2_dos_and_flood.py, home of the dos and flood demos."""
    path = (
        pathlib.Path(__file__).resolve().parent.parent
        / "examples" / "l2_dos_and_flood.py"
    )
    spec = importlib.util.spec_from_file_location("l2_dos_and_flood", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_scheme(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "effectiveness", "--scheme", "magic"])

    def test_rejects_bad_table_number(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table", "9"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "effectiveness", "--set", "n_hosts=0"],
            ["run", "dhcp-starvation", "--set", "n_hosts=0"],
            ["run", "overhead", "--set", "n_hosts=0"],
            ["campaign", "--hosts", "0"],
            ["campaign", "--seeds", "0"],
            ["campaign", "--jobs", "0"],
        ],
    )
    def test_rejects_counts_below_one(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv, out=io.StringIO())
        assert exc.value.code == 2
        flag = "n_hosts" if argv[0] == "run" else f"argument {argv[1]}:"
        assert f"{flag} must be at least 1, got 0" in capsys.readouterr().err


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
        result = run_result("effectiveness", "--set", "attack_duration=10")
        assert not result["prevented"] and not result["detected"]

    def test_demo_mitm_with_scheme(self):
        result = run_result(
            "effectiveness", "--scheme", "dai", "--set", "attack_duration=10"
        )
        assert result["prevented"]

    def test_demo_dos(self, capsys):
        assert not l2_demos().blackhole_dos(None, duration=10)
        assert "service denied" in capsys.readouterr().out

    def test_demo_dos_protected(self, capsys):
        assert l2_demos().blackhole_dos("static-arp", duration=10)
        assert "service survived" in capsys.readouterr().out

    def test_demo_flood(self, capsys):
        assert l2_demos().mac_flood(None, duration=3)
        assert "FAIL-OPEN" in capsys.readouterr().out

    def test_demo_flood_with_port_security(self, capsys):
        assert not l2_demos().mac_flood("port-security", duration=3)
        assert "holding" in capsys.readouterr().out

    def test_demo_starvation(self):
        result = run_result("dhcp-starvation", "--set", "duration=20")
        assert result["exhausted"]

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


#: kind -> (scheme, variant, scenario) at the campaign-kinds-smoke CI
#: job's sizes: 4 hosts, 2 s of attack, each kind's first default variant.
TINY = {
    "effectiveness": (None, {"technique": "reply"}, {
        "n_hosts": 4, "attack_duration": 2.0, "warmup": 3.0, "cooldown": 2.0,
    }),
    "detection-latency": ("arpwatch", {"poison_rate": 1.0}, {
        "n_hosts": 4, "attack_duration": 2.0, "warmup": 3.0, "cooldown": 2.0,
    }),
    "false-positives": (None, {"duration": 60.0}, {"n_hosts": 4}),
    "overhead": (None, {"n_hosts": 4}, {}),
    "footprint": (None, {"n_hosts": 4}, {}),
    "controller-failover": ("sdn-arp-guard", {"fail_mode": "open"}, {
        "n_hosts": 4, "attack_duration": 2.0, "cooldown": 2.0,
    }),
    "dhcp-starvation": (None, {"duration": 2.0}, {"n_hosts": 4}),
}

#: Result fields read off the wall clock: they differ between any two runs.
WALL_CLOCK = {"build_seconds", "wall_seconds"}


def _without_wall_clock(payload: dict) -> dict:
    return {k: v for k, v in payload.items() if k not in WALL_CLOCK}


def _executed(kind: str, scheme=None, variant=None, scenario=None, seed=7) -> dict:
    """``execute_task``'s result for trial 0 of a cell."""
    return execute_task(CampaignTask(
        experiment=kind, scheme=scheme, variant=variant or {},
        scenario=scenario or {}, trial=0, seed=seed,
    ))


#: The default variants of the two kinds too large for a quick cell.
SMALL_DEFAULTS = {
    "campus-churn": {"buildings": 2, "leaves_per_building": 1, "hosts_per_leaf": 4,
                     "duration": 0.5},
    "replay": {"trace": "synthetic:frames=500"},
}


@pytest.mark.parametrize(
    "kind", sorted(k for k in KINDS if not KINDS[k].requires_scheme)
)
def test_no_scheme_is_spelled_none(kind):
    _, variant, scenario = TINY.get(kind, (None, SMALL_DEFAULTS.get(kind), {}))
    assert _executed(kind, None, variant, scenario)["scheme"] == "none"


class TestRunCommand:
    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_run_is_one_campaign_task(self, kind):
        scheme, variant, scenario = TINY.get(
            kind, (None, dict(KINDS[kind].default_variants[0]), {})
        )
        argv = [kind] + (["--scheme", scheme] if scheme else [])
        for key, value in {**variant, **scenario}.items():
            argv += ["--set", f"{key}={value}"]
        payload = run_result(*argv)
        assert result_from_dict(payload).to_dict() == payload
        expected = _executed(kind, scheme, variant, scenario)
        assert _without_wall_clock(payload) == _without_wall_clock(expected)

    def test_seed_is_taken_verbatim(self):
        argv = ["effectiveness", "--set", "attack_duration=2"]
        assert run_result(*argv) == run_result(*argv, "--set", "seed=7")
        assert run_result(*argv, "--set", "seed=11") == _executed(
            "effectiveness", scenario={"attack_duration": 2.0}, seed=11
        )

    @pytest.mark.parametrize(
        "setting, message",
        [
            ("n_hosts", "expected KEY=VALUE, got 'n_hosts'"),
            ("bogus=1", "variant keys: ['faults', 'technique']; scenario keys:"),
            ("n_hosts=four", "n_hosts='four' is not a valid int"),
            ("n_hosts=0", "n_hosts must be at least 1, got 0"),
            ("with_monitor=maybe", "with_monitor='maybe': expected true or false"),
            ("victim_profile=beos", "unknown OS profile 'beos'"),
            ("faults=loss=2", "invalid fault_spec"),
        ],
    )
    def test_malformed_setting_exits_2(self, setting, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "effectiveness", "--set", setting], out=io.StringIO())
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    def test_uncastable_variant_value_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(
                ["run", "detection-latency", "--scheme", "dai",
                 "--set", "poison_rate=fast"],
                out=io.StringIO(),
            )
        assert exc.value.code == 2
        assert "poison_rate='fast' is not a valid float" in capsys.readouterr().err

    def test_scheme_required_kind_without_scheme_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "detection-latency"], out=io.StringIO())
        assert exc.value.code == 2
        assert "needs a scheme" in capsys.readouterr().err

    def test_bool_and_profile_settings(self):
        result = run_result(
            "effectiveness", "--set", "attack_duration=4",
            "--set", "with_monitor=false", "--set", "victim_profile=linux",
        )
        assert result == _executed("effectiveness", scenario={
            "attack_duration": 4.0, "with_monitor": False, "victim_profile": "linux",
        })

    def test_run_has_seven_options(self):
        parser = build_parser()
        subparsers = next(a for a in parser._actions if a.dest == "command")
        run = subparsers.choices["run"]
        options = {
            action.option_strings[0] if action.option_strings else action.dest
            for action in run._actions
            if action.dest != "help"
        }
        assert options == {
            "kind", "--scheme", "--set", "--trace-out", "--metrics-out",
            "--profile-out", "--telemetry-out",
        }

    @pytest.mark.parametrize("command", ["trace", "metrics", "profile", "demo"])
    def test_single_experiment_commands_are_gone(self, command):
        with pytest.raises(SystemExit):
            build_parser().parse_args([command])


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
