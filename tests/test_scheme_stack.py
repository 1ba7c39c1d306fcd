"""Tests for ordered scheme stacks: parsing, composition, experiments."""

from __future__ import annotations

import io

import pytest

from repro.campaign import CampaignSpec, run_campaign
from repro.cli import main
from repro.core.api import run
from repro.core.experiment import (
    ScenarioConfig,
    result_from_dict,
)
from repro.errors import CampaignError, SchemeError
from repro.schemes.base import Scheme, SchemeProfile, Severity
from repro.schemes.registry import (
    make_defense,
    make_scheme,
    make_scheme_stack,
    parse_stack,
    validate_scheme_spec,
)
from repro.schemes.stack import SchemeStack

#: Tiny scenario so stack experiment tests stay fast.
FAST = {"n_hosts": 3, "warmup": 2.0, "attack_duration": 6.0, "cooldown": 1.0}


class TestParseStack:
    def test_single_key(self):
        assert parse_stack("dai") == ["dai"]

    def test_ordered_members(self):
        assert parse_stack("dai+arpwatch") == ["dai", "arpwatch"]
        assert parse_stack("arpwatch+dai") == ["arpwatch", "dai"]

    def test_unknown_member(self):
        with pytest.raises(KeyError, match="nope"):
            parse_stack("dai+nope")

    @pytest.mark.parametrize("spec", ["", "+", "dai+", "+dai", "dai++arpwatch"])
    def test_malformed(self, spec):
        with pytest.raises(ValueError):
            parse_stack(spec)

    def test_duplicate_member(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_stack("dai+dai")

    def test_validate_spec(self):
        assert validate_scheme_spec("dai+arpwatch")
        assert validate_scheme_spec("anticap")
        assert not validate_scheme_spec("dai+nope")
        assert not validate_scheme_spec("dai++")


class TestMakeDefense:
    def test_single_returns_plain_scheme(self):
        scheme = make_defense("dai")
        assert not isinstance(scheme, SchemeStack)
        assert scheme.profile.key == "dai"

    def test_single_accepts_kwargs(self):
        scheme = make_defense("dai", arp_rate_limit=None)
        assert scheme.arp_rate_limit is None

    def test_stack_rejects_kwargs(self):
        with pytest.raises(ValueError, match="kwargs"):
            make_defense("dai+arpwatch", arp_rate_limit=None)

    def test_stack_key_and_order(self):
        stack = make_defense("dai+arpwatch")
        assert isinstance(stack, SchemeStack)
        assert stack.profile.key == "dai+arpwatch"
        assert [s.profile.key for s in stack.schemes] == ["dai", "arpwatch"]

    def test_make_scheme_stack_always_stacks(self):
        stack = make_scheme_stack("dai")
        assert isinstance(stack, SchemeStack)
        assert [s.profile.key for s in stack.schemes] == ["dai"]


class TestCombinedProfile:
    def test_requirements_or_together(self):
        stack = make_defense("dai+arpwatch")
        # DAI needs managed switches; ArpWatch needs neither host nor
        # infra changes beyond the monitor it already assumes.
        assert stack.profile.requires_infra_change
        assert not stack.profile.requires_crypto

    def test_mixed_kinds_become_hybrid(self):
        assert make_defense("dai+arpwatch").profile.kind == "hybrid"

    def test_coverage_takes_the_best_level(self):
        stack = make_defense("port-security+dai")
        # Port security claims NONE on replies; DAI claims PREVENTS.
        assert stack.profile.claimed_coverage["reply"] == "prevents"

    def test_empty_stack_rejected(self):
        with pytest.raises(SchemeError):
            SchemeStack([])


class TestStackLifecycle:
    def test_install_uninstall_reverse_order(self, lan):
        lan.add_host("h1")
        stack = make_defense("anticap+darpi")
        stack.install(lan)
        assert all(s.installed for s in stack.schemes)
        stack.uninstall()
        assert not any(s.installed for s in stack.schemes)
        assert not stack.installed
        stack.uninstall()  # idempotent

    def test_mid_install_failure_unwinds(self, lan):
        lan.add_host("h1")

        class ExplodingScheme(Scheme):
            profile = SchemeProfile(
                key="exploder",
                display_name="Exploder",
                kind="detection",
                placement="host",
                requires_infra_change=False,
                requires_host_change=False,
                requires_crypto=False,
                supports_dhcp_networks=True,
                cost="free",
                reference="test fixture",
            )

            def _install(self, lan, protected):
                raise RuntimeError("install failed")

        first = make_scheme("anticap")
        stack = SchemeStack([first, ExplodingScheme()])
        with pytest.raises(RuntimeError, match="install failed"):
            stack.install(lan)
        # The already-installed member was unwound; its guards are gone.
        assert not first.installed
        assert all(len(h.arp_guards) == 0 for h in lan.hosts.values())
        assert not stack.installed

    def test_merged_alerts_sorted_by_time(self):
        a = make_scheme("arpwatch")
        b = make_scheme("snort-arpspoof")
        stack = SchemeStack([a, b])
        b.raise_alert(2.0, Severity.WARNING, "late")
        a.raise_alert(1.0, Severity.WARNING, "early")
        assert [al.time for al in stack.alerts] == [1.0, 2.0]
        assert {al.scheme for al in stack.alerts} == {"arpwatch", "snort-arpspoof"}

    def test_summed_overhead_counters(self):
        a = make_scheme("arpwatch")
        b = make_scheme("snort-arpspoof")
        stack = SchemeStack([a, b])
        a.messages_sent = 3
        b.messages_sent = 4
        assert stack.messages_sent == 7
        a.suppressed_alerts = 2
        assert stack.suppressed_alerts == 2


class TestStackExperiments:
    def test_effectiveness_with_stack_round_trips(self):
        result = run(
            "effectiveness",
            ScenarioConfig(seed=11, **FAST),
            scheme="dai+arpwatch",
            technique="reply",
        )
        assert result.scheme == "dai+arpwatch"
        assert result.prevented  # DAI stops the forged replies at the port
        restored = result_from_dict(result.to_dict())
        assert restored == result

    def test_stack_order_is_reported_verbatim(self):
        result = run(
            "effectiveness",
            ScenarioConfig(seed=11, **FAST),
            scheme="arpwatch+dai",
            technique="reply",
        )
        assert result.scheme == "arpwatch+dai"

    def test_stack_detects_and_prevents(self):
        # The stack inherits DAI's prevention and ArpWatch's detection.
        result = run(
            "effectiveness",
            ScenarioConfig(seed=11, **FAST),
            scheme="dai+arpwatch",
            technique="reply",
        )
        solo = run(
            "effectiveness",
            ScenarioConfig(seed=11, **FAST),
            scheme="dai",
            technique="reply",
        )
        assert result.prevented and solo.prevented


class TestStackCampaign:
    def test_spec_accepts_stacks(self):
        spec = CampaignSpec(
            experiment="effectiveness",
            schemes=("dai+arpwatch",),
            variants=({"technique": "reply"},),
            seeds=1,
            scenario=FAST,
        )
        assert spec.tasks()

    def test_spec_rejects_bad_stack(self):
        with pytest.raises(CampaignError, match="unknown scheme"):
            CampaignSpec(schemes=("dai+nope",), seeds=1)

    def test_campaign_runs_a_stack_cell(self, tmp_path):
        spec = CampaignSpec(
            experiment="effectiveness",
            schemes=("dai+arpwatch",),
            variants=({"technique": "reply"},),
            seeds=2,
            scenario=FAST,
        )
        campaign = run_campaign(spec, jobs=1, cache=None)
        assert not campaign.failures
        assert len(campaign.results) == 2
        assert all(
            payload["scheme"] == "dai+arpwatch"
            for payload in campaign.results.values()
        )

    def test_cli_campaign_with_stack(self, tmp_path):
        out = io.StringIO()
        rc = main(
            [
                "campaign",
                "--schemes", "dai+arpwatch",
                "--seeds", "1",
                "--hosts", "3",
                "--duration", "6",
                "--cache-dir", str(tmp_path / "cache"),
                "--csv",
            ],
            out=out,
        )
        assert rc == 0
        assert "dai+arpwatch" in out.getvalue()

    def test_cli_run_rejects_unknown_stack(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "effectiveness", "--scheme", "dai+nope"])
