"""Tests for the unified run() facade."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core import api
from repro.core import experiment as exp
from repro.core.api import KINDS, normalize_kind, run
from repro.core.experiment import ScenarioConfig
from repro.errors import ExperimentError
from repro.l2.topology import DEFAULT_SWITCH_PORTS
from repro.schemes.registry import make_defense

FAST = ScenarioConfig(n_hosts=3, warmup=2.0, attack_duration=6.0, cooldown=1.0)


class TestRegistry:
    def test_all_kinds_registered(self):
        assert sorted(KINDS) == [
            "campus-churn",
            "controller-failover",
            "detection-latency",
            "dhcp-starvation",
            "effectiveness",
            "false-positives",
            "footprint",
            "interception-timeline",
            "overhead",
            "replay",
            "resolution-latency",
        ]

    def test_campaign_data_matches_runner(self):
        for kind in KINDS.values():
            # The campaign's trace axis is the runner's source parameter.
            params = {
                "source" if key == "trace" else key for key in kind.variant_keys
            }
            assert params <= set(kind.params), kind.name
            for variant in kind.default_variants:
                assert set(variant) <= set(kind.variant_keys), kind.name
            names = {f.name for f in dataclasses.fields(kind.result_type)}
            for metric in kind.metrics:
                assert metric in names or isinstance(
                    getattr(kind.result_type, metric, None), property
                ), (kind.name, metric)

    def test_result_types_in_serialization_registry(self):
        for kind in KINDS.values():
            assert kind.result_type in exp.RESULT_TYPES.values()

    def test_normalize_accepts_underscores(self):
        assert normalize_kind("resolution_latency") == "resolution-latency"
        assert normalize_kind(" overhead ") == "overhead"

    def test_run_exported_from_package(self):
        import repro
        import repro.core

        assert repro.run is api.run
        assert repro.core.run is api.run


class TestValidation:
    def test_unknown_kind(self):
        with pytest.raises(ExperimentError, match="unknown experiment kind"):
            run("sideways")

    def test_unknown_parameter(self):
        with pytest.raises(ExperimentError, match="unknown parameter"):
            run("effectiveness", FAST, scheme="dai", technique="reply", pace=2)

    def test_missing_required_parameter(self):
        with pytest.raises(ExperimentError, match="missing required"):
            run("detection-latency", FAST, scheme="dai")

    def test_requires_scheme(self):
        with pytest.raises(ExperimentError, match="needs a scheme"):
            run("detection-latency", FAST, poison_rate=1.0)

    def test_scheme_kwargs_collision(self):
        with pytest.raises(ExperimentError, match="collide"):
            run(
                "effectiveness",
                FAST,
                scheme="dai",
                technique="reply",
                scheme_kwargs={"technique": "request"},
            )

    def test_invalid_faults_argument(self):
        with pytest.raises(ExperimentError, match="invalid faults"):
            run("effectiveness", FAST, scheme="dai", technique="reply",
                faults="loss=much")

    def test_faults_conflict_with_config(self):
        import dataclasses

        config = dataclasses.replace(FAST, fault_spec="loss=0.1")
        with pytest.raises(ExperimentError, match="both"):
            run("effectiveness", config, scheme="dai", technique="reply",
                faults="loss=0.2")

    @pytest.mark.parametrize("kind", ["campus-churn", "replay"])
    def test_kinds_without_faults_refuse_a_fault_spec(self, kind):
        params = {"source": "synthetic:frames=10"} if kind == "replay" else {}
        with pytest.raises(ExperimentError, match="applies no faults"):
            run(kind, FAST, faults="loss=0.5", **params)
        config = dataclasses.replace(FAST, fault_spec="loss=0.5")
        with pytest.raises(ExperimentError, match="applies no faults"):
            run(kind, config, **params)
        assert [k for k in KINDS if not KINDS[k].takes_faults] == [
            "campus-churn", "replay"
        ]

    def test_faults_none_string_is_clean(self):
        result = run("effectiveness", FAST, scheme="dai", technique="reply",
                     faults="none")
        assert result.outcome == "prevented+detected"


class TestRunKinds:
    def test_effectiveness(self):
        result = run("effectiveness", FAST, scheme="dai", technique="reply")
        assert isinstance(result, exp.EffectivenessResult)
        assert result.prevented

    def test_detection_latency(self):
        result = run("detection-latency", FAST, scheme="arpwatch", poison_rate=1.0)
        assert isinstance(result, exp.LatencyResult)
        assert result.detected

    def test_false_positives(self):
        result = run("false-positives", ScenarioConfig(n_hosts=3),
                     scheme="arpwatch", duration=120.0)
        assert isinstance(result, exp.FalsePositiveResult)

    def test_overhead(self):
        result = run("overhead", scheme="dai", n_hosts=4)
        assert isinstance(result, exp.OverheadResult)
        assert result.n_hosts == 4

    def test_overhead_at_64_hosts(self):
        """Figure 2's largest LAN: 64 users plus the gateway, monitor and
        attacker outgrow the default 64-port switch."""
        result = run("overhead", n_hosts=64)
        assert result.n_hosts == 64

    def test_resolution_latency(self):
        result = run("resolution-latency", scheme=None, n_resolutions=5)
        assert isinstance(result, exp.ResolutionLatencyResult)

    def test_interception_timeline(self):
        result = run("interception-timeline", FAST, scheme=None,
                     duration=20.0, attack_at=5.0)
        assert isinstance(result, exp.InterceptionTimeline)

    def test_footprint(self):
        result = run("footprint", scheme="dai", n_hosts=4, settle=5.0)
        assert isinstance(result, exp.FootprintResult)

    def test_baseline_scheme_none(self):
        result = run("effectiveness", FAST, scheme=None, technique="reply")
        assert not result.prevented  # undefended LAN falls to the attack


class TestScenarioSwitchSizing:
    def test_lan_that_fits_keeps_the_default_switch(self):
        scenario = exp.Scenario(ScenarioConfig(n_hosts=60))
        assert len(scenario.lan.switch.ports) == DEFAULT_SWITCH_PORTS

    def test_large_lan_leaves_a_port_for_a_scheme_server(self):
        scenario = exp.Scenario(ScenarioConfig(n_hosts=64))
        scenario.install(make_defense("s-arp"))  # wires its AKD station
        assert "sarp-akd" in scenario.lan.hosts
