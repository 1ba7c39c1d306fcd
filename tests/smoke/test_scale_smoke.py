"""A 1k-host spine-leaf campaign cell sharded across two processes: the
cross-partition ``Boundary``, merged shard metrics and cached results.
Run with ``python -m pytest -m smoke tests/smoke/test_scale_smoke.py``."""

from __future__ import annotations

import json

import pytest

from repro.core.experiment import result_from_dict
from repro.core.scale import CampusScaleResult
from repro.obs.export import parse_prometheus
from tests.smoke._cli import run_cli

pytestmark = pytest.mark.smoke


def test_merged_shard_metrics_and_cached_results(tmp_path):
    # --jobs 1 keeps the campaign in-process so run_sharded can fork its
    # own shard workers (campaign pool workers are daemonic and would
    # force the in-process fallback).
    run_cli(
        tmp_path,
        "campaign", "--experiment", "campus-churn",
        "--schemes", "none,arpwatch", "--seeds", "1", "--jobs", "1",
        "--variant", "buildings=4", "--variant", "leaves_per_building=5",
        "--variant", "hosts_per_leaf=50", "--variant", "duration=1.0",
        "--variant", "shards=2",
        "--cache-dir", ".scale-cache", "--metrics-out", "scale-metrics.prom",
    )

    cells = list((tmp_path / ".scale-cache").glob("*.json"))
    assert cells, "campaign wrote no cache entries"
    by_scheme = {}
    for cell in cells:
        payload = json.loads(cell.read_text())["result"]
        result = result_from_dict(payload)
        assert isinstance(result, CampusScaleResult), type(result)
        assert result.to_dict() == payload, "round-trip drift"
        assert result.shards == 2, result.shards
        assert result.partitions == 5, result.partitions  # 4 bldgs + spine
        assert result.deliveries > 0 and result.events > 0, result
        by_scheme[result.scheme or "none"] = result
    assert set(by_scheme) == {"none", "arpwatch"}, sorted(by_scheme)
    # 1000 stations; the monitored cell adds one mirror-port host.
    assert by_scheme["none"].hosts == 1000, by_scheme["none"].hosts
    assert by_scheme["arpwatch"].hosts == 1001, by_scheme["arpwatch"].hosts
    # The churn is benign but every station is new: the passive
    # monitor pages on first-seen bindings, the bare fabric cannot.
    assert by_scheme["none"].alerts == 0, by_scheme["none"]
    assert by_scheme["arpwatch"].alerts > 0, by_scheme["arpwatch"]

    # Merged shard metrics: alert objects live in the shard workers,
    # so the registry counter folded back into the parent is the
    # cross-process ground truth — it must match the cell result.
    metrics = parse_prometheus((tmp_path / "scale-metrics.prom").read_text())
    assert any(n.startswith("repro_perf_") for n in metrics)
    counted = sum(
        v for labels, v in metrics["scheme_alerts_total"].items()
        if dict(labels).get("scheme") == "arpwatch"
    )
    assert counted == by_scheme["arpwatch"].alerts, (
        counted, by_scheme["arpwatch"].alerts
    )
    print(f"{len(cells)} campus cells validated; "
          f"deliveries={by_scheme['none'].deliveries} across "
          f"{by_scheme['none'].shards} shards; "
          f"{counted} merged alerts")
