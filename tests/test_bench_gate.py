"""Guards on the bench regression gate itself.

The gate is only as good as its baseline: these tests pin the committed
``BENCH.json`` to the suite's actual benchmark names, pin the key set
each run mode is gated on (derived from the :data:`SUITE` tags), and
prove that ``check()`` fails loudly — rather than silently ungating —
when a baseline key stops being produced or is unknown to the suite.
"""

from __future__ import annotations

import dataclasses
import io
import json

import pytest

import repro.sim.simulator as simulator
from repro.cli import build_parser, main
from repro.perf import PERF, bench
from repro.perf.bench import SUITE, check, expected_keys, load_baseline

BASELINE = bench.BASELINE_PATH

WIRE_MICRO = {
    "encode_arp_fresh",
    "encode_arp_memoized",
    "decode_frame_eager",
    "decode_frame_lazy_header",
    "checksum_odd_1281B",
    "intern_mac_from_wire",
    "cam_lookup_batch_wire",
    "nic_batch_filter",
    "ipv4_icmp_echo_codec",
}
CAMPUS = {
    "campus_build_hosts_per_sec",
    "campus_churn_deliveries",
    "campus_churn_sharded_deliveries",
    "campus_churn_forked_deliveries",
    "campus_churn_10k_deliveries",
}
FULL_ONLY = {"campus_churn_forked_deliveries", "campus_churn_10k_deliveries"}
REPLAY = {
    "replay_source_fps",
    "replay_engine_fps",
    "replay_arpwatch_fps",
    "replay_pcap_arpwatch_fps",
}
PER_FRAME = WIRE_MICRO | {"broadcast_flood_unbatched"} | REPLAY
ALL_KEYS = PER_FRAME | {"broadcast_flood_deliveries"} | CAMPUS

#: (quick, batching) -> the exact key set that run is gated on.
MODES = {
    (False, True): ALL_KEYS,
    (True, True): ALL_KEYS - FULL_ONLY,
    (False, False): PER_FRAME,
    (True, False): PER_FRAME,
}
SIZES = {(False, True): 20, (True, True): 18, (False, False): 14, (True, False): 14}


class TestCommittedBaseline:
    def test_baseline_exists_and_parses(self):
        assert BASELINE.exists(), "BENCH.json must be committed"
        baseline = load_baseline(BASELINE)
        assert baseline, "baseline must not be empty"
        assert all(ops > 0 for ops in baseline.values())

    def test_baseline_keys_exactly_match_the_suite(self):
        """A renamed or dropped benchmark must regenerate the baseline;
        a new benchmark must be added to it.  Either drift fails here
        before it can silently weaken the gate."""
        baseline = set(load_baseline(BASELINE))
        assert baseline == set(SUITE) == ALL_KEYS, (
            f"baseline/suite drift: only in baseline {baseline - set(SUITE)}, "
            f"only in suite {set(SUITE) - baseline}"
        )

    def test_batch_only_keys_are_known_benchmarks(self):
        batched_only = {name for name, b in SUITE.items() if b.batched_only}
        assert batched_only == {"broadcast_flood_deliveries"} | CAMPUS
        full_only = {name for name, b in SUITE.items() if b.full_only}
        assert full_only == FULL_ONLY

    def test_headline_meets_the_batching_target(self):
        """The committed headline must reflect the batched plane: at
        least 2.5x the pre-batching 223k deliveries/sec record."""
        baseline = load_baseline(BASELINE)
        assert baseline["broadcast_flood_deliveries"] >= 2.5 * 223182


class TestTaggedKeySets:
    @pytest.mark.parametrize("quick,batching", sorted(MODES))
    def test_each_mode_gates_exactly_its_keys(self, quick, batching):
        keys = expected_keys(quick, batching)
        assert keys == MODES[quick, batching]
        assert len(keys) == SIZES[quick, batching]


class TestCheckFailsLoudly:
    def test_vanished_baseline_key_is_a_failure(self):
        """Under every tag combination, each key the run should have
        produced fails the gate when it is missing."""
        baseline = {name: 100.0 for name in SUITE}
        for mode in MODES:
            expected = expected_keys(*mode)
            for vanished in expected:
                results = {name: 100.0 for name in expected - {vanished}}
                assert check(results, baseline, expected) == [
                    f"{vanished}: missing from current run"
                ], mode

    def test_allow_missing_skips_only_the_listed_keys(self):
        """A baseline key the mode's tags exclude is not gated; every
        other missing key still fails."""
        expected = expected_keys(quick=True, batching=False)
        baseline = {name: 100.0 for name in SUITE}
        results = {name: 100.0 for name in expected - {"replay_engine_fps"}}
        assert check(results, baseline, expected) == [
            "replay_engine_fps: missing from current run"
        ]

    def test_unknown_baseline_key_fails(self):
        baseline = {"decode_frame_eager": 100.0, "renamed_away": 100.0}
        results = {"decode_frame_eager": 100.0}
        failures = check(results, baseline, frozenset(results))
        assert failures == ["renamed_away: baseline key unknown to the suite"]

    def test_regression_below_tolerance_fails(self):
        key = frozenset({"decode_frame_eager"})
        failures = check(
            {"decode_frame_eager": 40.0}, {"decode_frame_eager": 100.0}, key, 0.5
        )
        assert len(failures) == 1 and "decode_frame_eager" in failures[0]
        assert check(
            {"decode_frame_eager": 60.0}, {"decode_frame_eager": 100.0}, key, 0.5
        ) == []

    def test_new_benchmark_without_baseline_passes(self):
        results = {"decode_frame_eager": 100.0, "encode_arp_fresh": 1.0}
        baseline = {"decode_frame_eager": 100.0}
        assert check(results, baseline, frozenset(results)) == []


# ----------------------------------------------------------------------
# The CLI gate, over the real keys and tags with constant-time runners
# ----------------------------------------------------------------------
@pytest.fixture
def stub_suite(monkeypatch):
    """Every SUITE key and tag, each run returning 1000 ops/s at once."""
    stub = {
        name: dataclasses.replace(entry, run=lambda quick: 1000.0)
        for name, entry in SUITE.items()
    }
    monkeypatch.setattr(bench, "SUITE", stub)
    return stub


def _bench(*argv: str) -> tuple:
    out = io.StringIO()
    code = main(["bench", *argv], out=out)
    return code, out.getvalue()


def _write_baseline(path, results) -> None:
    path.write_text(json.dumps({"meta": {}, "results": results}))


class TestBenchCli:
    @pytest.mark.parametrize("flags", [["--quick"], ["--no-batch"]])
    def test_update_refuses_a_partial_run(self, stub_suite, tmp_path, flags):
        baseline = tmp_path / "baseline.json"
        code, text = _bench("--update", "--baseline", str(baseline), *flags)
        assert code == 2
        assert "refusing --update" in text
        assert not baseline.exists()

    def test_no_batch_holds_for_the_run_only(self, stub_suite, tmp_path):
        seen = set()

        def record(quick):
            seen.add(simulator.DEFAULT_BATCHING)
            return 1000.0

        for name, entry in stub_suite.items():
            stub_suite[name] = dataclasses.replace(entry, run=record)
        code, _text = _bench(
            "--quick", "--no-batch", "--baseline", str(tmp_path / "none.json")
        )
        assert code == 0
        assert seen == {False}
        assert simulator.DEFAULT_BATCHING is True

    def test_full_update_writes_every_key(self, stub_suite, tmp_path):
        baseline = tmp_path / "baseline.json"
        code, _text = _bench("--update", "--baseline", str(baseline))
        assert code == 0
        assert set(load_baseline(baseline)) == ALL_KEYS

    def test_check_without_baseline_runs_nothing(self, monkeypatch, tmp_path):
        def explode(quick):
            raise AssertionError("the suite ran before the baseline check")

        monkeypatch.setattr(bench, "SUITE", {"decode_frame_eager": bench.Bench(explode)})
        code, text = _bench("--check", "--baseline", str(tmp_path / "missing.json"))
        assert code == 1
        assert "no baseline" in text

    def test_custom_baseline_gates_campus_and_replay_keys(self, stub_suite, tmp_path):
        baseline = tmp_path / "tmp.json"
        _write_baseline(
            baseline,
            {"campus_churn_deliveries": 1e12, "replay_arpwatch_fps": 1e12},
        )
        code, text = _bench("--quick", "--check", "--baseline", str(baseline))
        assert code == 1
        assert "REGRESSION campus_churn_deliveries" in text
        assert "REGRESSION replay_arpwatch_fps" in text

        # The per-frame plane skips the batched-only campus key, not replay.
        code, text = _bench(
            "--quick", "--check", "--no-batch", "--baseline", str(baseline)
        )
        assert code == 1
        assert "campus_churn_deliveries" not in text
        assert "REGRESSION replay_arpwatch_fps" in text

    def test_perf_line_covers_the_whole_run(self, stub_suite, tmp_path):
        def reuse(quick):
            PERF.flood_buffer_reuses += 7
            return 1000.0

        last = list(stub_suite)[-1]
        stub_suite[last] = dataclasses.replace(stub_suite[last], run=reuse)
        code, text = _bench("--quick", "--baseline", str(tmp_path / "none.json"))
        assert code == 0
        lines = text.splitlines()
        perf = [i for i, line in enumerate(lines) if line.startswith("# perf:")]
        assert perf == [len(lines) - 1]
        assert lines[-2].split()[0] == last
        assert "flood-buffer-reuses=7" in lines[-1]


class TestBenchOptions:
    def test_scale_subcommand_is_gone(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scale"])

    def test_bench_has_six_options(self):
        parser = build_parser()
        subparsers = next(
            a for a in parser._actions if a.dest == "command"
        )
        options = {
            action.option_strings[0]
            for action in subparsers.choices["bench"]._actions
            if action.option_strings and action.dest != "help"
        }
        assert options == {
            "--check", "--update", "--baseline", "--quick", "--tolerance",
            "--no-batch",
        }
