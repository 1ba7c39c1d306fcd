"""A controller-failover campaign cell in both fail modes: the SDN
agent's egress, its fallback to the learning plane and the control-plane
metrics.  Run with ``python -m pytest -m smoke tests/smoke/test_sdn_smoke.py``."""

from __future__ import annotations

import json

import pytest

from repro.core.experiment import FailoverResult, result_from_dict
from repro.obs.export import parse_prometheus
from tests.smoke._cli import run_cli

pytestmark = pytest.mark.smoke


def test_failover_results_and_control_plane_metrics(tmp_path):
    run_cli(
        tmp_path,
        "campaign", "--experiment", "controller-failover",
        "--schemes", "sdn-arp-guard", "--seeds", "2", "--hosts", "3",
        "--duration", "8",
        "--faults", "flap=ctrl@t3-5",
        "--cache-dir", ".sdn-cache", "--metrics-out", "sdn-metrics.prom",
    )

    cells = list((tmp_path / ".sdn-cache").glob("*.json"))
    assert cells, "campaign wrote no cache entries"
    by_mode = {}
    for cell in cells:
        payload = json.loads(cell.read_text())["result"]
        result = result_from_dict(payload)
        assert isinstance(result, FailoverResult), type(result)
        assert result.to_dict() == payload, "round-trip drift"
        assert result.fallback_entered and result.recovered, result
        by_mode.setdefault(result.fail_mode, []).append(result)
    assert set(by_mode) == {"open", "closed"}, sorted(by_mode)
    # Fail-open leaves a poisoned window; fail-closed stays clean.
    assert all(r.exposed for r in by_mode["open"]), by_mode["open"]
    assert not any(r.exposed for r in by_mode["closed"]), by_mode["closed"]

    metrics = parse_prometheus((tmp_path / "sdn-metrics.prom").read_text())
    assert "flow_table_evictions_total" in metrics, sorted(metrics)
    punts = sum(metrics["packet_in_total"].values())
    assert punts > 0, metrics["packet_in_total"]
    rtts = sum(metrics["controller_rtt_seconds_count"].values())
    assert rtts > 0, "keepalives never completed a round trip"
    flaps = {dict(k).get("kind"): v
             for k, v in metrics["fault_events_total"].items()}
    assert flaps.get("flap_down", 0) > 0, flaps
    assert flaps.get("flap_up", 0) > 0, flaps
    print(f"{len(cells)} failover cells validated; "
          f"packet-ins: {punts}, keepalive RTTs: {rtts}")
