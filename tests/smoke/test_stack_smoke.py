"""A composed-stack campaign cell (``dai+arpwatch``) end to end: cached
results round-trip under the stack's name, every trial is prevented, and
the hook drop metrics are exported.  Run with
``python -m pytest -m smoke tests/smoke/test_stack_smoke.py``."""

from __future__ import annotations

import json

import pytest

from repro.core.experiment import result_from_dict
from repro.obs.export import parse_prometheus
from tests.smoke._cli import run_cli

pytestmark = pytest.mark.smoke


def test_stack_cells_round_trip_and_export_hook_drops(tmp_path):
    run_cli(
        tmp_path,
        "campaign", "--schemes", "dai+arpwatch",
        "--techniques", "reply", "--seeds", "2", "--hosts", "3", "--duration", "6",
        "--cache-dir", ".stack-cache", "--metrics-out", "stack-metrics.prom",
    )

    cells = list((tmp_path / ".stack-cache").glob("*.json"))
    assert cells, "campaign wrote no cache entries"
    restored = []
    for cell in cells:
        payload = json.loads(cell.read_text())["result"]
        result = result_from_dict(payload)
        assert result.scheme == "dai+arpwatch", result.scheme
        assert result.to_dict() == payload, "round-trip drift"
        restored.append(result)
    assert all(r.prevented for r in restored), restored

    metrics = parse_prometheus((tmp_path / "stack-metrics.prom").read_text())
    drops = [n for n in metrics if n.startswith("hook_drops_total")]
    assert drops, sorted(metrics)
    print(f"{len(restored)} stack cells validated; hook drop series: {drops}")
