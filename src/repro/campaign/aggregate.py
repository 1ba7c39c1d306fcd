"""Multi-trial aggregation of campaign results into report artifacts.

Where the single-run report code fills each table cell with one seed's
number, a campaign fills it with a distribution: per-cell mean, 95 % CI,
percentiles, and extrema over every completed trial.  The output reuses
:class:`repro.core.report.Artifact`, so aggregated tables render, CSV-
export, and slot into tooling exactly like the paper's originals.

Determinism: cells and trials are walked in spec order, so the floats
(and therefore the rendered table) are bit-identical for any worker
count or completion order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

from repro.analysis.stats import summarize
from repro.analysis.tables import render_table
from repro.campaign.spec import canonical_params
from repro.core.api import KINDS
from repro.core.experiment import SerializableResult, result_from_dict
from repro.core.metrics import percentile
from repro.core.report import Artifact
from repro.errors import CampaignError

if TYPE_CHECKING:
    from repro.campaign.runner import CampaignResult

__all__ = [
    "MetricStats",
    "CellAggregate",
    "aggregate",
    "result_grid",
    "to_artifact",
    "publish_metrics",
]


@dataclass(frozen=True)
class MetricStats:
    """Distribution summary of one metric over a cell's trials.

    Boolean metrics (``prevented``, ``detected``) become rates in [0, 1];
    ``None`` values (e.g. detection latency when undetected) are dropped,
    with the surviving sample size visible as ``n``.
    """

    n: int
    mean: float
    stdev: float
    minimum: float
    maximum: float
    ci95: float
    p50: float
    p95: float

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "MetricStats":
        summary = summarize(list(values))
        return cls(
            n=summary.n,
            mean=summary.mean,
            stdev=summary.stdev,
            minimum=summary.minimum,
            maximum=summary.maximum,
            ci95=summary.ci95_half_width,
            p50=percentile(values, 50),
            p95=percentile(values, 95),
        )

    def __str__(self) -> str:
        return f"{self.mean:.4g} ±{self.ci95:.2g}"


@dataclass(frozen=True)
class CellAggregate:
    """One aggregated grid cell: all trials of (scheme, variant)."""

    scheme: str
    variant: str
    n: int
    metrics: Dict[str, MetricStats]


def aggregate(campaign: CampaignResult) -> List[CellAggregate]:
    """Fold per-trial results into one :class:`CellAggregate` per cell."""
    kind = KINDS[campaign.spec.experiment]
    by_cell: Dict[Tuple[str, str], List[object]] = {}
    for task, payload in campaign.completed_in_order():
        by_cell.setdefault(task.cell, []).append(result_from_dict(payload))

    out: List[CellAggregate] = []
    for (scheme, variant), results in by_cell.items():
        metrics: Dict[str, MetricStats] = {}
        for name in kind.metrics:
            values: List[float] = []
            for result in results:
                value = getattr(result, name)
                if value is None:
                    continue
                values.append(float(value))
            if values:
                metrics[name] = MetricStats.from_values(values)
        out.append(
            CellAggregate(
                scheme=scheme, variant=variant, n=len(results), metrics=metrics
            )
        )
    return out


def result_grid(campaign: CampaignResult) -> List[List[SerializableResult]]:
    """A one-trial campaign's results: one row per scheme, one result per
    variant, both in spec order.

    This is what the paper artifacts render from, so it refuses a
    partial grid: the first failed cell raises :class:`CampaignError`
    naming the cell and its error.
    """
    if campaign.failures:
        failure = campaign.failures[0]
        raise CampaignError(
            f"{campaign.spec.name or campaign.spec.experiment}: cell "
            f"{failure.task.scheme_label} {canonical_params(failure.task.variant)} "
            f"failed: {failure.error}"
        )
    results = [result_from_dict(payload) for _, payload in campaign.completed_in_order()]
    width = len(campaign.spec.effective_variants())
    return [results[i : i + width] for i in range(0, len(results), width)]


def publish_metrics(campaign: CampaignResult) -> int:
    """Fold a campaign's per-trial results into the metrics registry.

    Emits per-cell detection-latency histograms
    (``campaign_detection_latency_seconds{scheme,variant}``), per-cell
    alert totals (``campaign_alerts_total{scheme,variant,truth}``), and
    per-(scheme, fault-spec) trial outcomes
    (``campaign_outcomes_total{scheme,faults,outcome}``) — the
    numerators/denominators of each scheme's detection rate under a
    given impairment level.  A Prometheus dump (``repro campaign
    --metrics-out``) turns these into the audit-trail numbers next to
    the aggregate table.  Returns the number of observations published.
    """
    from repro.obs.registry import REGISTRY

    latency = REGISTRY.histogram(
        "campaign_detection_latency_seconds",
        "Detection latency per campaign cell",
        labels=("scheme", "variant"),
    )
    alerts = REGISTRY.counter(
        "campaign_alerts_total",
        "Alerts per campaign cell, split into true/false positives",
        labels=("scheme", "variant", "truth"),
    )
    outcomes = REGISTRY.counter(
        "campaign_outcomes_total",
        "Campaign trial outcomes per scheme and fault spec "
        "(detection rate under impairment = detected / (detected + missed))",
        labels=("scheme", "faults", "outcome"),
    )
    published = 0
    for task, payload in campaign.completed_in_order():
        result = result_from_dict(payload)
        scheme, variant = task.cell
        value = getattr(result, "detection_latency", None)
        if value is not None:
            latency.labels(scheme=scheme, variant=variant).observe(float(value))
            published += 1
        for field_name, truth in (("tp_alerts", "true"), ("fp_alerts", "false")):
            count = getattr(result, field_name, None)
            if count:
                alerts.labels(scheme=scheme, variant=variant, truth=truth).inc(
                    int(count)
                )
                published += 1
        detected = getattr(result, "detected", None)
        if detected is not None:
            fault_label = str(task.variant.get("faults") or "none")
            outcomes.labels(
                scheme=scheme,
                faults=fault_label,
                outcome="detected" if detected else "missed",
            ).inc()
            published += 1
            if getattr(result, "prevented", False):
                outcomes.labels(
                    scheme=scheme, faults=fault_label, outcome="prevented"
                ).inc()
                published += 1
    return published


def to_artifact(campaign: CampaignResult) -> Artifact:
    """Render a campaign as a multi-trial statistics table."""
    spec = campaign.spec
    kind = KINDS[spec.experiment]
    cells = aggregate(campaign)
    header = ["Scheme", "variant", "n"] + list(kind.metrics)
    rows: List[List[object]] = []
    for cell in cells:
        row: List[object] = [cell.scheme, cell.variant, cell.n]
        for name in kind.metrics:
            stats = cell.metrics.get(name)
            row.append(str(stats) if stats is not None else "-")
        rows.append(row)
    title = (
        f"Campaign — {kind.name}: {len(spec.schemes)} scheme(s) × "
        f"{len(spec.effective_variants())} variant(s) × {spec.seeds} seed(s), "
        f"root seed {spec.root_seed}"
    )
    return Artifact(
        artifact_id=f"C-{kind.name}",
        title=title,
        header=header,
        rows=rows,
        rendered=render_table(header, rows, title=title),
    )
