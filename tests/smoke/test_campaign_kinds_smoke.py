"""Every experiment kind once through the campaign executor, and a paper
artifact regenerated twice through one result cache.  Run with
``python -m pytest -m smoke tests/smoke/test_campaign_kinds_smoke.py``."""

from __future__ import annotations

import pytest

from repro.campaign import ResultCache, run_campaign
from repro.core import api
from repro.core.report import paper_spec, render
from tests.smoke._cli import run_cli

pytestmark = pytest.mark.smoke

#: Kinds that need a scheme run under one; the rest run the baseline.
SCHEMES = {"detection-latency": "arpwatch", "controller-failover": "sdn-arp-guard"}


@pytest.mark.parametrize("kind", list(api.KINDS))
def test_kind_runs_one_cell(tmp_path, kind):
    # One tiny cell, default variants; the CLI exits non-zero when any
    # task fails.
    run_cli(
        tmp_path,
        "campaign", "--experiment", kind, "--schemes", SCHEMES.get(kind, "none"),
        "--seeds", "1", "--hosts", "4", "--duration", "2", "--no-cache",
    )


def test_paper_artifact_rerun_is_served_from_the_cache(tmp_path):
    # Table 4 at 4 and 8 hosts, on two workers: the rerun must serve
    # every cell from the cache and render the same rows.
    schemes = ("static-arp", "s-arp", "tarp", "dai", "arpwatch", "hybrid", "middleware")
    spec = paper_spec("T4", schemes, n_hosts=(4, 8))
    first = run_campaign(spec, jobs=2, cache=ResultCache(tmp_path))
    second = run_campaign(spec, jobs=2, cache=ResultCache(tmp_path))
    assert first.executed == len(spec.tasks()), first.executed
    assert second.executed == 0, second.executed
    assert render(first).rows == render(second).rows
    print(render(second).rendered)
    print(f"cells: {first.executed} executed, then {second.cache_hits} cached")
