"""The cross-product analyzer: every scheme against every attack variant.

This is the driver behind Table 2 (and the summary verdicts in the
README): one campaign runs the standard MITM scenario for each (scheme,
technique) pair, and the outcomes are collated per scheme.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro.attacks.arp_poison import POISON_TECHNIQUES
from repro.core.experiment import EffectivenessResult, ScenarioConfig
from repro.schemes.registry import SCHEME_FACTORIES

# repro.campaign loads where it is used, as in repro.core.report.
if TYPE_CHECKING:
    from repro.campaign.spec import CampaignSpec

__all__ = ["SchemeAnalysis", "Analyzer", "analyses"]


@dataclass
class SchemeAnalysis:
    """All effectiveness results for one scheme."""

    scheme: str
    results: List[EffectivenessResult] = field(default_factory=list)

    @property
    def prevents_all(self) -> bool:
        return bool(self.results) and all(r.prevented for r in self.results)

    @property
    def detects_all(self) -> bool:
        return bool(self.results) and all(
            r.detected or r.prevented for r in self.results
        )

    @property
    def verdict(self) -> str:
        if self.prevents_all:
            return "prevents all variants"
        if self.detects_all:
            return "detects (or stops) all variants"
        missed = [r.technique for r in self.results if r.outcome == "missed"]
        if len(missed) == len(self.results):
            return "ineffective"
        return f"partial (missed: {', '.join(missed)})" if missed else "partial"


def analyses(
    grid: Sequence[List[EffectivenessResult]],
) -> Dict[str, SchemeAnalysis]:
    """Scheme label -> analysis, from the result grid of a finished
    :meth:`Analyzer.spec` campaign (one row per scheme)."""
    return {row[0].scheme: SchemeAnalysis(scheme=row[0].scheme, results=row) for row in grid}


class Analyzer:
    """Run the scheme × technique matrix."""

    def __init__(
        self,
        schemes: Optional[Sequence[str]] = None,
        techniques: Optional[Sequence[str]] = None,
        config: Optional[ScenarioConfig] = None,
    ) -> None:
        self.schemes = list(schemes) if schemes is not None else list(SCHEME_FACTORIES)
        self.techniques = (
            list(techniques) if techniques is not None else list(POISON_TECHNIQUES)
        )
        self.config = config or ScenarioConfig()

    def spec(self, include_baseline: bool = True) -> CampaignSpec:
        """The matrix as Table 2's campaign: every scheme (the baseline
        ``None`` first) × every technique, each cell run once at the
        config's own seed."""
        from repro.campaign.spec import CampaignSpec

        return CampaignSpec(
            experiment="effectiveness",
            schemes=tuple(([None] if include_baseline else []) + self.schemes),
            variants=tuple({"technique": t} for t in self.techniques),
            seeds=1,
            scenario=self.config.to_dict(),
            name="T2",
        )

    def run(self, include_baseline: bool = True) -> Dict[str, SchemeAnalysis]:
        """Returns scheme-key -> analysis; key ``"none"`` is the baseline."""
        from repro.campaign.aggregate import result_grid
        from repro.campaign.runner import run_campaign

        campaign = run_campaign(self.spec(include_baseline), jobs=1, cache=None, retries=0)
        return analyses(result_grid(campaign))
