"""Tests for the report generators: shape checks at tiny parameters, and
each of T2-T4 and F1-F4 pinned at small sizes that keep every scheme and
variant the benchmark's full size runs."""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.campaign import ResultCache, execute_task, run_campaign
from repro.core.experiment import ScenarioConfig
from repro.core.report import (
    figure_1_detection_latency,
    figure_2_overhead,
    figure_3_resolution_latency,
    figure_4_interception,
    paper_spec,
    render,
    table_2_effectiveness,
    table_3_false_positives,
    table_4_footprint,
)
from repro.errors import CampaignError

FAST = ScenarioConfig(n_hosts=3, warmup=2.0, attack_duration=10.0, cooldown=1.0)

T3_SCHEMES = (
    "static-arp", "anticap", "antidote", "s-arp", "tarp", "port-security",
    "dai", "arpwatch", "snort-arpspoof", "active-probe", "middleware", "hybrid",
)
T4_SCHEMES = ("static-arp", "s-arp", "tarp", "dai", "arpwatch", "hybrid", "middleware")
DETECTORS = ("arpwatch", "snort-arpspoof", "active-probe", "middleware", "hybrid")

#: Artifact id -> (generator, keywords, digest of its header and rows).
PINS = {
    "T2": (table_2_effectiveness, dict(config=FAST), "80b85534c6a37689"),
    "T3": (
        table_3_false_positives,
        dict(schemes=T3_SCHEMES, duration=120.0),
        "ff07720984c0ae9f",
    ),
    "T4": (
        table_4_footprint,
        dict(schemes=T4_SCHEMES, host_counts=(4, 8)),
        "ce9eb206357402c6",
    ),
    "F1": (
        figure_1_detection_latency,
        dict(rates=(1.0, 5.0), schemes=DETECTORS),
        "914e60a45c0c734e",
    ),
    "F2": (
        figure_2_overhead,
        dict(host_counts=(4, 8), schemes=(None, "s-arp", "tarp", "active-probe")),
        "0cd1269107e4c94f",
    ),
    "F3": (figure_3_resolution_latency, dict(n_resolutions=5), "48e863b991469b16"),
    "F4": (
        figure_4_interception,
        dict(
            schemes=(None, "anticap", "dai", "s-arp", "hybrid"),
            duration=40.0,
            attack_at=10.0,
        ),
        "ad0e842a8ada397e",
    ),
}


def artifact_digest(artifact) -> str:
    """The benchmark's digest rule: header and rows, each cell by ``str``."""
    payload = [
        list(map(str, artifact.header)),
        [list(map(str, row)) for row in artifact.rows],
    ]
    text = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("artifact_id", sorted(PINS))
def test_artifact_pinned(artifact_id):
    generate, kwargs, pinned = PINS[artifact_id]
    artifact = generate(**kwargs)
    assert artifact.artifact_id == artifact_id
    assert artifact_digest(artifact) == pinned


class TestOneSweepMechanism:
    """An artifact's spec renders the same artifact however it is run."""

    SPEC = paper_spec("T4", T4_SCHEMES, n_hosts=(4, 8))
    PIN = PINS["T4"][2]

    def test_parallel_run_renders_the_pin(self):
        campaign = run_campaign(self.SPEC, jobs=2)
        assert campaign.executed == len(T4_SCHEMES) * 2
        assert artifact_digest(render(campaign)) == self.PIN

    def test_cached_rerun_executes_nothing(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        run_campaign(self.SPEC, cache=cache)
        again = run_campaign(self.SPEC, cache=cache)
        assert (again.executed, again.cache_hits) == (0, len(T4_SCHEMES) * 2)
        assert artifact_digest(render(again)) == self.PIN

    def test_failed_cell_is_not_rendered(self):
        def executor(task):
            if task.scheme == "dai":
                raise RuntimeError("boom")
            return execute_task(task)

        spec = paper_spec("T4", ("arpwatch", "dai"), n_hosts=(4,))
        campaign = run_campaign(spec, retries=0, executor=executor)
        with pytest.raises(CampaignError, match="T4: cell dai n_hosts=4 failed: RuntimeError: boom"):
            render(campaign)


class TestTables:
    def test_table_2_small(self):
        artifact = table_2_effectiveness(
            schemes=["static-arp", "arpwatch"], config=FAST
        )
        assert artifact.artifact_id == "T2"
        labels = [row[0] for row in artifact.rows]
        assert labels == ["none", "static-arp", "arpwatch"]
        assert "verdict" in artifact.header
        assert artifact.csv.startswith("Scheme,")

    def test_table_3_small(self):
        artifact = table_3_false_positives(schemes=["hybrid"], duration=300.0)
        assert artifact.artifact_id == "T3"
        assert len(artifact.rows) == 1
        assert artifact.rows[0][0] == "hybrid"

    def test_table_4_small(self):
        artifact = table_4_footprint(schemes=["arpwatch"], host_counts=(4, 8))
        assert artifact.artifact_id == "T4"
        row = artifact.rows[0]
        assert row[0] == "arpwatch"
        assert row[1] <= row[2]  # state grows with hosts


class TestFigures:
    def test_figure_1_small(self):
        artifact = figure_1_detection_latency(
            rates=(1.0, 5.0), schemes=("arpwatch",)
        )
        assert artifact.artifact_id == "F1"
        assert len(artifact.rows) == 2
        assert all(row[1] is not None for row in artifact.rows)

    def test_figure_2_small(self):
        artifact = figure_2_overhead(host_counts=(4,), schemes=(None, "tarp"))
        assert artifact.artifact_id == "F2"
        assert artifact.header == ["hosts", "plain-arp", "tarp"]
        plain, tarp = artifact.rows[0][1], artifact.rows[0][2]
        assert plain > 0 and tarp > 0

    def test_figure_3_small(self):
        artifact = figure_3_resolution_latency(
            n_resolutions=5, schemes=(None, "tarp")
        )
        assert artifact.artifact_id == "F3"
        assert [row[0] for row in artifact.rows] == ["plain-arp", "tarp"]
        assert artifact.rows[0][3] == "1.00x"  # plain vs itself

    def test_figure_4_small(self):
        artifact = figure_4_interception(
            schemes=(None,), duration=40.0, attack_at=10.0
        )
        assert artifact.artifact_id == "F4"
        ratios = [row[1] for row in artifact.rows]
        assert ratios[0] == 0.0
        assert max(ratios) > 0.5

    def test_artifact_csv_roundtrip_shape(self):
        artifact = figure_3_resolution_latency(
            n_resolutions=5, schemes=(None,)
        )
        lines = artifact.csv.strip().splitlines()
        assert len(lines) == 1 + len(artifact.rows)
        assert lines[0].count(",") == len(artifact.header) - 1
