"""The campus-churn experiment kind: CLI grid, serialization and
sharding modes.  (The campus keys of the bench gate are pinned in
``test_bench_gate.py``.)
"""

from __future__ import annotations

import json

import pytest

from repro.core import api
from repro.core.experiment import result_from_dict
from repro.core.scale import CampusScaleResult, _run_campus_churn
from repro.errors import ExperimentError

_SMALL = dict(
    buildings=2, leaves_per_building=1, hosts_per_leaf=4, duration=0.8
)


class TestCampusChurnKind:
    def test_registered_with_api(self):
        kind = api.KINDS["campus-churn"]
        assert kind.result_type is CampusScaleResult
        assert "shards" in kind.params

    def test_smoke_and_roundtrip(self):
        result = api.run("campus-churn", scheme="arpwatch", **_SMALL)
        assert result.hosts == 9  # 8 stations + monitor
        assert result.deliveries > 0
        assert result.events > 0
        assert result.deliveries_per_sec > 0
        restored = result_from_dict(json.loads(json.dumps(result.to_dict())))
        assert restored == result

    def test_sharding_modes_agree(self):
        baseline = _run_campus_churn(None, **_SMALL)
        for shards in (1, 2):
            sharded = _run_campus_churn(None, shards=shards, **_SMALL)
            assert sharded.deliveries == baseline.deliveries
            assert sharded.events == baseline.events
        assert baseline.partitions == 1
        assert _run_campus_churn(None, shards=1, **_SMALL).partitions == 3

    def test_rejects_non_monitor_schemes(self):
        with pytest.raises(ExperimentError, match="monitor-placement"):
            _run_campus_churn("dai", **_SMALL)

    def test_rejects_bad_duration_and_shards(self):
        with pytest.raises(ExperimentError, match="duration"):
            _run_campus_churn(None, buildings=1, leaves_per_building=1,
                              hosts_per_leaf=2, duration=0.1)
        with pytest.raises(ExperimentError, match="shards"):
            _run_campus_churn(None, shards=-1, **_SMALL)

    def test_campaign_kind_registered(self):
        from repro.core.api import KINDS

        kind = KINDS["campus-churn"]
        assert "deliveries_per_sec" in kind.metrics
        assert set(kind.variant_keys) >= {"buildings", "shards", "duration"}


class TestVariantOverrideFlag:
    def test_cli_grid_applies_overrides(self):
        from repro.cli import build_parser, _campaign_grid

        args = build_parser().parse_args(
            [
                "campaign", "--experiment", "campus-churn",
                "--schemes", "none",
                "--variant", "hosts_per_leaf=6",
                "--variant", "shards=2",
            ]
        )
        schemes, variants, _scenario = _campaign_grid(args)
        assert schemes == (None,)
        assert variants == ({"hosts_per_leaf": 6, "shards": 2},)

    def test_unknown_variant_key_rejected(self):
        from repro.cli import build_parser, _campaign_grid

        args = build_parser().parse_args(
            ["campaign", "--experiment", "campus-churn",
             "--variant", "bogus=1"]
        )
        with pytest.raises(SystemExit, match="bogus"):
            _campaign_grid(args)

    def test_value_coercion(self):
        from repro.cli import _parse_variant_override

        assert _parse_variant_override("shards=2") == ("shards", 2)
        assert _parse_variant_override("duration=1.5") == ("duration", 1.5)
        assert _parse_variant_override("mode=fast") == ("mode", "fast")
        with pytest.raises(SystemExit):
            _parse_variant_override("no-equals-sign")
