"""A lossy-link campaign cell end to end: cached results round-trip and
the fault metrics count dropped and delayed frames.  Run with
``python -m pytest -m smoke tests/smoke/test_faults_smoke.py``."""

from __future__ import annotations

import json

import pytest

from repro.core.experiment import result_from_dict
from repro.obs.export import parse_prometheus
from tests.smoke._cli import run_cli

pytestmark = pytest.mark.smoke


def test_lossy_cells_round_trip_and_count_fault_frames(tmp_path):
    run_cli(
        tmp_path,
        "campaign", "--schemes", "arpwatch",
        "--techniques", "reply", "--seeds", "2", "--hosts", "3", "--duration", "6",
        "--faults", "loss=0.1,jitter=1ms",
        "--cache-dir", ".faults-cache", "--metrics-out", "faults-metrics.prom",
    )

    cells = list((tmp_path / ".faults-cache").glob("*.json"))
    assert cells, "campaign wrote no cache entries"
    for cell in cells:
        payload = json.loads(cell.read_text())["result"]
        result = result_from_dict(payload)
        assert result.to_dict() == payload, "round-trip drift"

    metrics = parse_prometheus((tmp_path / "faults-metrics.prom").read_text())
    frames = {dict(k).get("kind"): v
              for k, v in metrics["fault_frames_total"].items()}
    assert frames.get("dropped", 0) > 0, frames
    assert frames.get("delayed", 0) > 0, frames
    fault_levels = {dict(k).get("faults")
                    for k in metrics["campaign_outcomes_total"]}
    assert "loss=0.1,jitter=1ms" in fault_levels, fault_levels
    print(f"{len(cells)} lossy cells validated; fault frames: {frames}")
