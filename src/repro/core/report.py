"""Regeneration of the paper's tables and figures.

Each ``table_N`` / ``figure_N`` function returns a :class:`Artifact`:
the header+rows (or series) plus a rendered plain-text form.  Table 1 is
pure metadata.  Every other artifact is one campaign over one experiment
kind (:func:`paper_spec`, or :meth:`Analyzer.spec` for Table 2), run
serially and uncached, and :func:`render` turns the finished campaign
into the artifact.  The same spec run with ``jobs`` workers or from a
result cache renders the same artifact.  ``EXPERIMENTS.md`` records one
full run; the benchmark suite regenerates each artifact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence

from repro.analysis.tables import render_series, render_table, to_csv
from repro.core.analyzer import Analyzer, analyses
from repro.core.criteria import comparison_matrix, coverage_matrix
from repro.core.experiment import ScenarioConfig
from repro.schemes.registry import SCHEME_FACTORIES, all_profiles

# repro.campaign loads where it is used, so importing this module costs
# no more than before, and the runner's multiprocessing stays out of it.
if TYPE_CHECKING:
    from repro.campaign.runner import CampaignResult
    from repro.campaign.spec import CampaignSpec

__all__ = [
    "Artifact",
    "table_1_criteria",
    "table_2_effectiveness",
    "table_3_false_positives",
    "table_4_footprint",
    "figure_1_detection_latency",
    "figure_2_overhead",
    "figure_3_resolution_latency",
    "figure_4_interception",
    "paper_spec",
    "render",
]

#: Detection-capable schemes (monitor/host detectors) used by Figure 1.
DETECTOR_KEYS = ("arpwatch", "snort-arpspoof", "active-probe", "middleware", "hybrid")
#: Schemes with a resolution-latency story (Figure 3).
LATENCY_KEYS = (None, "s-arp", "tarp")


@dataclass(frozen=True)
class Artifact:
    """One reproduced table or figure."""

    artifact_id: str
    title: str
    header: Sequence[str]
    rows: Sequence[Sequence[object]]
    rendered: str

    @property
    def csv(self) -> str:
        return to_csv(self.header, self.rows)


# ======================================================================
# Tables
# ======================================================================
def table_1_criteria() -> Artifact:
    """Qualitative comparison matrix (pure metadata; instant)."""
    profiles = all_profiles()
    header, rows = comparison_matrix(profiles)
    cov_header, cov_rows = coverage_matrix(profiles)
    merged_header = list(header) + [f"claimed:{h}" for h in cov_header[1:]]
    merged_rows = [list(r) + cr[1:] for r, cr in zip(rows, cov_rows)]
    return _table(
        "T1",
        "Scheme comparison matrix",
        "Table 1 — scheme comparison matrix",
        merged_header,
        merged_rows,
    )


def table_2_effectiveness(
    schemes: Optional[Sequence[str]] = None,
    config: Optional[ScenarioConfig] = None,
) -> Artifact:
    """Measured effectiveness: scheme × technique outcomes."""
    return _regenerate(Analyzer(schemes=schemes, config=config).spec())


def table_3_false_positives(
    schemes: Optional[Sequence[str]] = None,
    duration: float = 900.0,
) -> Artifact:
    """False alarms per scheme under benign churn (no attack at all)."""
    return _regenerate(paper_spec("T3", schemes, duration=[duration]))


def table_4_footprint(
    schemes: Optional[Sequence[str]] = None,
    host_counts: Sequence[int] = (8, 16, 32),
) -> Artifact:
    """State entries / scheme chatter as the LAN grows."""
    return _regenerate(paper_spec("T4", schemes, n_hosts=host_counts))


# ======================================================================
# Figures
# ======================================================================
def figure_1_detection_latency(
    rates: Sequence[float] = (0.2, 0.5, 1.0, 2.0, 5.0, 10.0),
    schemes: Sequence[str] = DETECTOR_KEYS,
) -> Artifact:
    """Detection latency (s) vs poison rate (pps), per detector."""
    return _regenerate(paper_spec("F1", schemes, poison_rate=rates))


def figure_2_overhead(
    host_counts: Sequence[int] = (8, 16, 32, 64),
    schemes: Sequence[Optional[str]] = (None, "s-arp", "tarp", "active-probe"),
) -> Artifact:
    """ARP-layer frames per resolution vs LAN size."""
    return _regenerate(paper_spec("F2", schemes, n_hosts=host_counts))


def figure_3_resolution_latency(
    n_resolutions: int = 30,
    schemes: Sequence[Optional[str]] = LATENCY_KEYS,
) -> Artifact:
    """Mean/max ARP resolution latency: plain vs S-ARP vs TARP."""
    return _regenerate(paper_spec("F3", schemes, n_resolutions=[n_resolutions]))


def figure_4_interception(
    schemes: Sequence[Optional[str]] = (None, "anticap", "dai", "s-arp", "hybrid"),
    duration: float = 120.0,
    attack_at: float = 30.0,
) -> Artifact:
    """Interception ratio over time, with and without defenses."""
    return _regenerate(
        paper_spec("F4", schemes, duration=[duration], attack_at=[attack_at])
    )


# ======================================================================
# Campaigns
# ======================================================================
def paper_spec(
    artifact_id: str,
    schemes: Optional[Sequence[Optional[str]]],
    **sweep: Sequence[object],
) -> CampaignSpec:
    """The campaign behind one paper artifact.

    ``schemes`` (``None``: every registered scheme) × one variant per
    position in ``sweep``'s value lists, which are variant keys of the
    artifact's kind.  Every cell runs once at the ``ScenarioConfig``
    default seed; Table 2, which runs at its config's seed, takes its
    spec from :meth:`Analyzer.spec`.
    """
    from repro.campaign.spec import CampaignSpec

    return CampaignSpec(
        experiment=_ARTIFACTS[artifact_id][0],
        schemes=tuple(SCHEME_FACTORIES if schemes is None else schemes),
        variants=tuple(dict(zip(sweep, values)) for values in zip(*sweep.values())),
        seeds=1,
        scenario={"seed": ScenarioConfig.seed},
        name=artifact_id,
    )


def render(campaign: CampaignResult) -> Artifact:
    """The artifact a finished :func:`paper_spec` (or :meth:`Analyzer.spec`)
    campaign regenerates, however it was run.  Raises
    :class:`~repro.errors.CampaignError` if any cell failed."""
    from repro.campaign.aggregate import result_grid

    return _ARTIFACTS[campaign.spec.name][1](campaign.spec, result_grid(campaign))


def _regenerate(spec: CampaignSpec) -> Artifact:
    from repro.campaign.runner import run_campaign

    return render(run_campaign(spec, jobs=1, cache=None, retries=0))


def _axis(spec: CampaignSpec, key: str) -> List[object]:
    return [variant[key] for variant in spec.variants]


def _table(artifact_id, title, caption, header, rows) -> Artifact:
    return Artifact(artifact_id, title, header, rows, render_table(header, rows, title=caption))


def _figure(artifact_id, title, caption, x_label, xs, series) -> Artifact:
    """One row per x value, one column per series."""
    header = [x_label] + list(series)
    rows = [[x] + [values[i] for values in series.values()] for i, x in enumerate(xs)]
    rendered = render_series(caption, xs, series, x_label=x_label)
    return Artifact(artifact_id, title, header, rows, rendered)


def _render_t2(spec, grid) -> Artifact:
    rows = [
        [label] + [r.outcome for r in analysis.results] + [analysis.verdict]
        for label, analysis in analyses(grid).items()
    ]
    return _table(
        "T2",
        "Measured effectiveness",
        "Table 2 — measured effectiveness per attack variant",
        ["Scheme"] + _axis(spec, "technique") + ["verdict"],
        rows,
    )


def _render_t3(spec, grid) -> Artifact:
    (duration,) = _axis(spec, "duration")
    rows = [
        [r.scheme, r.fp_alerts, f"{r.fp_per_hour:.1f}", r.info_alerts,
         sum(r.churn_events.values())]
        for (r,) in grid
    ]
    return _table(
        "T3",
        "False positives under benign churn",
        f"Table 3 — false positives over {duration:.0f}s of churn",
        ["Scheme", "FP alerts", "FP/hour", "info alerts", "churn events"],
        rows,
    )


def _render_t4(spec, grid) -> Artifact:
    host_counts = _axis(spec, "n_hosts")
    header = (
        ["Scheme"] + [f"state@{n}" for n in host_counts] + [f"msgs@{n}" for n in host_counts]
    )
    rows = [
        [row[0].scheme] + [r.state_entries for r in row] + [r.scheme_messages for r in row]
        for row in grid
    ]
    return _table("T4", "Resource footprint", "Table 4 — resource footprint", header, rows)


def _render_f1(spec, grid) -> Artifact:
    return _figure(
        "F1",
        "Detection latency vs attack rate",
        "Figure 1 — detection latency (s) vs poison rate (pps)",
        "rate_pps",
        _axis(spec, "poison_rate"),
        {row[0].scheme: [r.detection_latency for r in row] for row in grid},
    )


def _render_f2(spec, grid) -> Artifact:
    return _figure(
        "F2",
        "Protocol overhead vs LAN size",
        "Figure 2 — resolution message overhead vs LAN size",
        "hosts",
        _axis(spec, "n_hosts"),
        {
            key or "plain-arp": [r.frames_per_resolution for r in row]
            for key, row in zip(spec.schemes, grid)
        },
    )


def _render_f3(spec, grid) -> Artifact:
    rows: List[List[object]] = []
    plain_mean: Optional[float] = None
    for key, (result,) in zip(spec.schemes, grid):
        mean_ms = result.mean_latency * 1e3
        if key is None:
            plain_mean = mean_ms
        slowdown = (mean_ms / plain_mean) if plain_mean else 0.0
        rows.append(
            [
                key or "plain-arp",
                f"{mean_ms:.3f}",
                f"{result.max_latency * 1e3:.3f}",
                f"{slowdown:.2f}x",
            ]
        )
    return _table(
        "F3",
        "Resolution latency comparison",
        "Figure 3 — ARP resolution latency",
        ["Scheme", "mean_ms", "max_ms", "slowdown_vs_plain"],
        rows,
    )


def _render_f4(spec, grid) -> Artifact:
    (attack_at,) = _axis(spec, "attack_at")
    return _figure(
        "F4",
        "Interception ratio over time",
        f"Figure 4 — MITM interception ratio over time (attack starts at t={attack_at:.0f}s)",
        "t_s",
        [t for t, _ in grid[-1][0].bins],
        {row[0].scheme: [ratio for _, ratio in row[0].bins] for row in grid},
    )


#: Artifact id -> (the experiment kind its campaign sweeps, its renderer).
_ARTIFACTS = {
    "T2": ("effectiveness", _render_t2),
    "T3": ("false-positives", _render_t3),
    "T4": ("footprint", _render_t4),
    "F1": ("detection-latency", _render_f1),
    "F2": ("overhead", _render_f2),
    "F3": ("resolution-latency", _render_f3),
    "F4": ("interception-timeline", _render_f4),
}
