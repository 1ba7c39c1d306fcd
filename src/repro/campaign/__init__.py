"""repro.campaign — parallel experiment campaigns with caching.

A *campaign* sweeps one experiment kind over a schemes × variants ×
seeds grid, executes the cells on a multiprocessing worker pool (with
per-task timeouts and bounded retries), serves repeat cells from an
on-disk result cache, and aggregates per-seed results into multi-trial
statistics rendered as standard report artifacts.

Typical use::

    from repro.campaign import CampaignSpec, ResultCache, run_campaign, to_artifact

    spec = CampaignSpec(
        experiment="effectiveness",
        schemes=(None, "dai", "arpwatch"),
        variants=({"technique": "reply"}, {"technique": "gratuitous"}),
        seeds=8,
    )
    campaign = run_campaign(spec, jobs=4, cache=ResultCache(".repro_cache"))
    print(to_artifact(campaign).rendered)

See ``docs/campaigns.md`` for the spec format, determinism guarantees,
and cache-key semantics.
"""

import importlib

from repro.campaign.aggregate import (
    CellAggregate,
    MetricStats,
    aggregate,
    publish_metrics,
    to_artifact,
)
from repro.campaign.spec import (
    CampaignSpec,
    CampaignTask,
    canonical_params,
    derive_seed,
    execute_task,
)

#: Names whose modules load on first use.  The worker pool pulls in
#: ``multiprocessing``, which one task run in-process (``repro run``)
#: never needs; importing it would also move the ``gc_gen*`` counts the
#: run's metrics report, which count collections since process start.
_LAZY = {
    "ResultCache": "cache",
    "code_fingerprint": "cache",
    "CampaignResult": "runner",
    "TaskFailure": "runner",
    "run_campaign": "runner",
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)


__all__ = [
    "CampaignResult",
    "CampaignSpec",
    "CampaignTask",
    "CellAggregate",
    "MetricStats",
    "ResultCache",
    "TaskFailure",
    "aggregate",
    "canonical_params",
    "code_fingerprint",
    "derive_seed",
    "execute_task",
    "publish_metrics",
    "run_campaign",
    "to_artifact",
]
