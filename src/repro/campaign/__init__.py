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

from repro.campaign.aggregate import (
    CellAggregate,
    MetricStats,
    aggregate,
    publish_metrics,
    to_artifact,
)
from repro.campaign.cache import ResultCache, code_fingerprint
from repro.campaign.runner import CampaignResult, TaskFailure, run_campaign
from repro.campaign.spec import (
    CampaignSpec,
    CampaignTask,
    canonical_params,
    derive_seed,
    execute_task,
)

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
