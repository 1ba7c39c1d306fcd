"""Campaign specs, seed derivation, serialization, and the smoke sweep."""

from __future__ import annotations

import io
import json

import pytest

from repro.campaign import (
    CampaignSpec,
    CampaignTask,
    aggregate,
    canonical_params,
    derive_seed,
    execute_task,
    run_campaign,
    to_artifact,
)
from repro.cli import main
from repro.core import api
from repro.core.experiment import (
    EffectivenessResult,
    FalsePositiveResult,
    FootprintResult,
    InterceptionTimeline,
    LatencyResult,
    OverheadResult,
    ResolutionLatencyResult,
    ScenarioConfig,
    result_from_dict,
)
from repro.errors import CampaignError, ExperimentError

#: Tiny scenario so campaign tests stay fast.
FAST = {"n_hosts": 3, "warmup": 2.0, "attack_duration": 6.0, "cooldown": 1.0}


class TestDeriveSeed:
    def test_stable_across_calls(self):
        assert derive_seed(7, "effectiveness", "dai", 0) == derive_seed(
            7, "effectiveness", "dai", 0
        )

    def test_distinct_parts_distinct_seeds(self):
        seeds = {
            derive_seed(7, "effectiveness", scheme, trial)
            for scheme in ("none", "dai", "arpwatch")
            for trial in range(10)
        }
        assert len(seeds) == 30

    def test_root_seed_matters(self):
        assert derive_seed(1, "x") != derive_seed(2, "x")

    def test_in_valid_range(self):
        seed = derive_seed(7, "anything")
        assert 0 <= seed < 2**31 - 1


class TestCampaignSpec:
    def test_grid_size(self):
        spec = CampaignSpec(
            schemes=(None, "dai"),
            variants=({"technique": "reply"}, {"technique": "request"}),
            seeds=3,
        )
        assert len(spec.tasks()) == 2 * 2 * 3

    def test_task_seeds_position_independent(self):
        forward = CampaignSpec(schemes=(None, "dai"), seeds=3)
        reverse = CampaignSpec(schemes=("dai", None), seeds=3)
        seeds_of = lambda spec: {
            (t.scheme_label, t.trial): t.seed for t in spec.tasks()
        }
        assert seeds_of(forward) == seeds_of(reverse)

    def test_rejects_unknown_experiment(self):
        with pytest.raises(CampaignError, match="unknown experiment"):
            CampaignSpec(experiment="telepathy")

    def test_rejects_unknown_scheme(self):
        with pytest.raises(CampaignError, match="unknown scheme"):
            CampaignSpec(schemes=("magic",))

    def test_rejects_bad_variant_key(self):
        with pytest.raises(CampaignError, match="variant keys"):
            CampaignSpec(variants=({"frequency": 3},))

    def test_rejects_bad_variant_value(self):
        with pytest.raises(
            CampaignError, match=r"'overhead': variant n_hosts='eight' .* int"
        ):
            CampaignSpec(experiment="overhead", variants=({"n_hosts": "eight"},))
        with pytest.raises(CampaignError, match=r"poison_rate=None .* float"):
            CampaignSpec(
                experiment="detection-latency",
                schemes=("arpwatch",),
                variants=({"poison_rate": None},),
            )

    def test_castable_variant_value_kept_as_given(self):
        spec = CampaignSpec(experiment="overhead", variants=({"n_hosts": "6"},))
        assert {dict(t.variant)["n_hosts"] for t in spec.tasks()} == {"6"}
        # talkers falls back to None (the runner's own default), so an
        # explicit None is valid; anything else must cast to int.
        CampaignSpec(experiment="campus-churn", variants=({"talkers": None},))
        with pytest.raises(CampaignError, match="talkers='many'"):
            CampaignSpec(
                experiment="campus-churn", variants=({"talkers": "many"},)
            )

    @pytest.mark.parametrize("experiment", ["campus-churn", "replay"])
    def test_kinds_without_faults_refuse_a_faults_axis(self, experiment):
        with pytest.raises(CampaignError, match="applies no faults"):
            CampaignSpec(experiment=experiment, faults=("loss=0.5",))
        with pytest.raises(CampaignError, match="applies no faults"):
            CampaignSpec(experiment=experiment, variants=({"faults": "loss=0.5"},))
        with pytest.raises(CampaignError, match="applies no faults"):
            CampaignSpec(experiment=experiment, scenario={"fault_spec": "loss=0.5"})
        CampaignSpec(experiment=experiment)  # a clean grid is fine

    def test_rejects_zero_seeds(self):
        with pytest.raises(CampaignError, match="seeds"):
            CampaignSpec(seeds=0)

    def test_pinned_scenario_seed_is_taken_verbatim(self):
        spec = CampaignSpec(schemes=(None, "dai"), seeds=1, scenario={"seed": 11})
        assert [task.seed for task in spec.tasks()] == [11, 11]

    def test_pinned_scenario_seed_needs_one_trial(self):
        with pytest.raises(CampaignError, match="pins seed=7"):
            CampaignSpec(seeds=2, scenario={"seed": 7})

    def test_rejects_baseline_when_scheme_required(self):
        with pytest.raises(CampaignError, match="needs a scheme"):
            CampaignSpec(experiment="detection-latency", schemes=(None,))

    def test_rejects_bad_scenario_override(self):
        with pytest.raises(ExperimentError, match="unknown fields"):
            CampaignSpec(scenario={"warp_speed": 9})

    def test_spec_round_trip(self):
        spec = CampaignSpec(
            schemes=(None, "dai"),
            variants=({"technique": "reply"},),
            seeds=2,
            root_seed=11,
            scenario=dict(FAST),
            name="demo",
        )
        restored = CampaignSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert restored == spec
        assert [t.seed for t in restored.tasks()] == [
            t.seed for t in spec.tasks()
        ]

    def test_task_round_trip(self):
        task = CampaignSpec(schemes=("dai",), seeds=1).tasks()[0]
        assert CampaignTask.from_dict(json.loads(json.dumps(task.to_dict()))) == task

    def test_canonical_params(self):
        assert canonical_params({}) == "-"
        assert canonical_params({"b": 2, "a": 1}) == "a=1,b=2"


class TestResultSerialization:
    SAMPLES = (
        EffectivenessResult(
            scheme="dai", technique="reply", prevented=True, detected=True,
            detection_latency=0.25, tp_alerts=2, fp_alerts=0,
            victim_poisoned_seconds=0.0, packets_intercepted=0,
        ),
        FalsePositiveResult(
            scheme="arpwatch", duration=600.0, fp_alerts=3, info_alerts=1,
            churn_events={"join": 4, "nic_swap": 1},
        ),
        LatencyResult(
            scheme="hybrid", poison_rate=2.0, detection_latency=None,
            detected=False,
        ),
        OverheadResult(
            scheme="s-arp", n_hosts=16, resolutions=60, arp_frames=120,
            scheme_messages=60, total_wire_bytes=12345,
        ),
        ResolutionLatencyResult(scheme="tarp", samples=(0.001, 0.002, 0.004)),
        InterceptionTimeline(
            scheme="none", bin_seconds=10.0,
            bins=((0.0, 0.0), (10.0, 0.8), (20.0, 1.0)),
        ),
        FootprintResult(
            scheme="dai", n_hosts=16, state_entries=17, scheme_messages=0,
            switch_cam_entries=18,
        ),
    )

    @pytest.mark.parametrize("sample", SAMPLES, ids=lambda s: type(s).__name__)
    def test_json_round_trip(self, sample):
        wire = json.loads(json.dumps(sample.to_dict()))
        assert type(sample).from_dict(wire) == sample
        assert result_from_dict(wire) == sample

    def test_round_trip_preserves_properties(self):
        timeline = self.SAMPLES[5]
        restored = result_from_dict(json.loads(json.dumps(timeline.to_dict())))
        assert restored.peak_ratio == timeline.peak_ratio

    def test_real_run_round_trips(self):
        result = api.run(
            "effectiveness",
            ScenarioConfig(seed=3, **FAST),
            scheme="dai",
            technique="reply",
        )
        assert result_from_dict(json.loads(json.dumps(result.to_dict()))) == result

    def test_wrong_kind_rejected(self):
        data = self.SAMPLES[0].to_dict()
        with pytest.raises(ExperimentError, match="cannot deserialize"):
            LatencyResult.from_dict(data)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ExperimentError, match="unknown result kind"):
            result_from_dict({"kind": "MysteryResult"})

    def test_missing_field_rejected(self):
        data = self.SAMPLES[0].to_dict()
        del data["prevented"]
        with pytest.raises(ExperimentError, match="missing field"):
            EffectivenessResult.from_dict(data)

    def test_scenario_config_round_trip(self):
        config = ScenarioConfig(seed=5, n_hosts=3, with_dhcp=True)
        wire = json.loads(json.dumps(config.to_dict()))
        assert ScenarioConfig.from_dict(wire) == config

    def test_scenario_config_partial_overrides(self):
        config = ScenarioConfig.from_dict({"n_hosts": 5})
        assert config.n_hosts == 5
        assert config.seed == ScenarioConfig().seed

    def test_scenario_config_unknown_profile(self):
        with pytest.raises(ExperimentError, match="unknown OS profile"):
            ScenarioConfig.from_dict({"victim_profile": "beos"})


class TestSmokeCampaign:
    """The tier-1 smoke sweep: 2 schemes × 2 seeds on 2 workers."""

    SPEC = CampaignSpec(
        experiment="effectiveness",
        schemes=(None, "dai"),
        variants=({"technique": "reply"},),
        seeds=2,
        scenario=dict(FAST),
    )

    def test_parallel_smoke_matches_serial(self):
        serial = run_campaign(self.SPEC, jobs=1)
        parallel = run_campaign(self.SPEC, jobs=2)
        assert serial.failures == () and parallel.failures == ()
        assert serial.executed == parallel.executed == 4
        # Bit-for-bit identical aggregates regardless of worker count.
        assert aggregate(serial) == aggregate(parallel)
        assert to_artifact(serial).rendered == to_artifact(parallel).rendered

    def test_smoke_outcome_shape(self):
        campaign = run_campaign(self.SPEC, jobs=2)
        cells = {c.scheme: c for c in aggregate(campaign)}
        assert cells["none"].metrics["prevented"].mean == 0.0
        assert cells["dai"].metrics["prevented"].mean == 1.0
        assert cells["dai"].n == 2

    def test_same_root_seed_same_aggregates_any_ordering(self):
        flipped = CampaignSpec.from_dict(
            {**self.SPEC.to_dict(), "schemes": ["dai", None]}
        )
        a = {c.scheme: c for c in aggregate(run_campaign(self.SPEC, jobs=2))}
        b = {c.scheme: c for c in aggregate(run_campaign(flipped, jobs=1))}
        assert a == b

    def test_execute_task_returns_tagged_dict(self):
        payload = execute_task(self.SPEC.tasks()[0])
        assert payload["kind"] == "EffectivenessResult"
        assert result_from_dict(payload).scheme == "none"


class TestCampaignCli:
    def run_cli(self, *argv: str) -> str:
        out = io.StringIO()
        assert main(list(argv), out=out) == 0
        return out.getvalue()

    def test_campaign_command(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        text = self.run_cli(
            "campaign", "--schemes", "none,dai", "--seeds", "2",
            "--jobs", "2", "--hosts", "3", "--duration", "5",
            "--no-cache",
        )
        assert "Campaign — effectiveness" in text
        assert "dai" in text
        assert "4 executed" in text
        assert "# perf (merged from 4 worker tasks):" in text
        assert not (tmp_path / ".repro_cache").exists()

    def test_campaign_csv_and_cache(self, tmp_path):
        cache_dir = tmp_path / "cache"
        argv = (
            "campaign", "--schemes", "dai", "--seeds", "2", "--hosts", "3",
            "--duration", "5", "--cache-dir", str(cache_dir), "--csv",
        )
        first = self.run_cli(*argv)
        assert first.startswith("Scheme,")
        second = self.run_cli(*argv)
        assert "2 cache hits (100%)" in second

    def test_campaign_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            main(["campaign", "--experiment", "telepathy"], out=io.StringIO())
