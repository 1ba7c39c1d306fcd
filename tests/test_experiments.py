"""Tests for the experiment harness and report generation (small parameters)."""

from __future__ import annotations

import pytest

from repro.core.analyzer import Analyzer
from repro.core.criteria import CRITERIA, comparison_matrix, coverage_matrix
from repro.core.api import run
from repro.core.experiment import ScenarioConfig
from repro.core.report import table_1_criteria
from repro.errors import ExperimentError
from repro.schemes.registry import SCHEME_FACTORIES, all_profiles

FAST = ScenarioConfig(n_hosts=3, warmup=3.0, attack_duration=15.0, cooldown=2.0)


class TestScenarioConfig:
    @pytest.mark.parametrize("n_hosts", [0, -1])
    def test_rejects_a_lan_without_users(self, n_hosts):
        with pytest.raises(ExperimentError, match="n_hosts must be at least 1"):
            ScenarioConfig(n_hosts=n_hosts)


class TestEffectiveness:
    def test_baseline_is_missed(self):
        result = run("effectiveness", FAST, scheme=None, technique="reply")
        assert result.outcome == "missed"
        assert result.victim_poisoned_seconds > 10
        assert result.packets_intercepted > 0

    def test_dai_prevents_and_detects(self):
        result = run("effectiveness", FAST, scheme="dai", technique="reply")
        assert result.prevented and result.detected
        assert result.victim_poisoned_seconds == 0.0
        assert result.packets_intercepted == 0
        assert result.detection_latency is not None
        assert result.detection_latency < 1.0

    def test_static_prevents_silently(self):
        result = run("effectiveness", FAST, scheme="static-arp", technique="reply")
        assert result.outcome == "prevented"
        assert not result.detected

    def test_arpwatch_detects_without_preventing(self):
        result = run("effectiveness", FAST, scheme="arpwatch", technique="reply")
        assert result.outcome == "detected"
        assert result.victim_poisoned_seconds > 0

    def test_port_security_misses_poisoning(self):
        result = run("effectiveness", FAST, scheme="port-security", technique="reply")
        assert result.outcome == "missed"

    def test_reactive_baseline_poisons(self):
        result = run("effectiveness", FAST, scheme=None, technique="reactive")
        assert not result.prevented

    def test_unknown_technique_rejected(self):
        with pytest.raises(ExperimentError):
            run("effectiveness", FAST, scheme=None, technique="quantum")

    def test_deterministic_given_seed(self):
        a = run("effectiveness", FAST, scheme="hybrid", technique="reply")
        b = run("effectiveness", FAST, scheme="hybrid", technique="reply")
        assert a == b


class TestFalsePositives:
    def test_no_attack_means_only_fps(self):
        result = run("false-positives", scheme="arpwatch", duration=300.0)
        assert result.scheme == "arpwatch"
        assert result.duration == 300.0
        assert result.churn_events  # churn actually happened

    def test_hybrid_quieter_than_arpwatch(self):
        aw = run("false-positives", scheme="arpwatch", duration=600.0)
        hy = run("false-positives", scheme="hybrid", duration=600.0)
        assert hy.fp_alerts <= aw.fp_alerts

    def test_fp_per_hour(self):
        result = run("false-positives", scheme="middleware", duration=1800.0)
        assert result.fp_per_hour == pytest.approx(result.fp_alerts * 2.0)


class TestLatencyAndOverhead:
    def test_detection_latency_reported(self):
        result = run("detection-latency", FAST, scheme="arpwatch", poison_rate=2.0)
        assert result.detected
        assert result.detection_latency is not None

    def test_higher_rate_not_slower(self):
        slow = run("detection-latency", FAST, scheme="arpwatch", poison_rate=0.2)
        fast = run("detection-latency", FAST, scheme="arpwatch", poison_rate=5.0)
        assert fast.detection_latency <= slow.detection_latency + 1e-9

    def test_invalid_rate(self):
        with pytest.raises(ExperimentError):
            run("detection-latency", scheme="arpwatch", poison_rate=0.0)

    def test_overhead_baseline(self):
        result = run("overhead", scheme=None, n_hosts=6, resolutions_per_host=2)
        assert result.resolutions == 12
        assert result.arp_frames > 0
        assert result.scheme_messages == 0

    def test_sarp_overhead_exceeds_plain(self):
        plain = run("overhead", scheme=None, n_hosts=6, resolutions_per_host=2)
        sarp = run("overhead", scheme="s-arp", n_hosts=6, resolutions_per_host=2)
        assert sarp.frames_per_resolution > plain.frames_per_resolution
        assert sarp.bytes_per_resolution > plain.bytes_per_resolution

    def test_resolution_latency_ordering(self):
        plain = run("resolution-latency", scheme=None, n_resolutions=8)
        tarp = run("resolution-latency", scheme="tarp", n_resolutions=8)
        sarp = run("resolution-latency", scheme="s-arp", n_resolutions=8)
        assert plain.mean_latency < tarp.mean_latency < sarp.mean_latency

    def test_sarp_slowdown_in_expected_band(self):
        """The headline Figure 3 shape: S-ARP is a small multiple slower."""
        plain = run("resolution-latency", scheme=None, n_resolutions=8)
        sarp = run("resolution-latency", scheme="s-arp", n_resolutions=8)
        slowdown = sarp.mean_latency / plain.mean_latency
        assert 3.0 < slowdown < 100.0


class TestInterceptionAndFootprint:
    def test_baseline_interception_rises_after_attack(self):
        timeline = run("interception-timeline", scheme=None, duration=60.0, attack_at=20.0)
        before = [r for t, r in timeline.bins if t < 20.0]
        after = [r for t, r in timeline.bins if t >= 30.0]
        assert max(before) == 0.0
        assert max(after) > 0.8

    def test_dai_keeps_interception_zero(self):
        timeline = run("interception-timeline", scheme="dai", duration=60.0, attack_at=20.0)
        assert timeline.peak_ratio == 0.0

    def test_footprint_scales_with_hosts(self):
        small = run("footprint", scheme="arpwatch", n_hosts=4, settle=10.0)
        large = run("footprint", scheme="arpwatch", n_hosts=10, settle=10.0)
        assert large.state_entries > small.state_entries


class TestCriteriaAndRegistry:
    def test_all_schemes_registered(self):
        # the paper's twelve plus the DARPI and SDN extensions
        assert len(SCHEME_FACTORIES) == 14

    def test_profiles_cover_all_criteria(self):
        header, rows = comparison_matrix(all_profiles())
        assert len(rows) == 14
        assert len(header) == 1 + len(CRITERIA)
        assert all(len(row) == len(header) for row in rows)

    def test_coverage_matrix_symbols(self):
        header, rows = coverage_matrix(all_profiles())
        valid = {"P", "D", "p", "-"}
        for row in rows:
            assert set(row[1:]) <= valid

    def test_table_1_renders(self):
        artifact = table_1_criteria()
        assert "S-ARP" in artifact.rendered
        assert "arpwatch" in artifact.rendered
        assert artifact.csv.count("\n") == 15  # header + 14 schemes

    def test_every_profile_has_limitations(self):
        for profile in all_profiles():
            assert profile.limitations, f"{profile.key} lists no limitations"
            assert profile.reference, f"{profile.key} lists no reference"


class TestAnalyzer:
    def test_small_matrix_run(self):
        analyzer = Analyzer(
            schemes=["static-arp", "arpwatch"],
            techniques=["reply"],
            config=FAST,
        )
        analyses = analyzer.run(include_baseline=True)
        assert set(analyses) == {"none", "static-arp", "arpwatch"}
        assert analyses["none"].verdict == "ineffective"
        assert analyses["static-arp"].prevents_all
        assert analyses["arpwatch"].detects_all
