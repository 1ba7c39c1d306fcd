"""The unified experiment front door: ``run(kind, config, ...)``.

The seven historical ``run_effectiveness``/``run_overhead``/... entry
points shared most of their shape (build a scenario, install a scheme,
measure, return a frozen result) but each grew its own signature, which
made sweeping a new axis — like the ``repro.faults`` impairment specs —
an eight-file change.  :func:`run` collapses them behind one call:

    from repro.core import api
    result = api.run("effectiveness", scheme="dai", technique="reply",
                     faults="loss=0.05,jitter=2ms")

``kind`` names an entry of the :data:`KINDS` registry (hyphenated, the
same names the campaign layer uses; underscores are normalised).  Per-
kind parameters are validated against the registry before anything is
built, so a typo'd parameter fails fast with the allowed set in the
message.  ``faults`` (a compact spec string or a
:class:`~repro.faults.FaultSpec`) is folded into the scenario config's
``fault_spec`` field, serialized verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, Mapping, Optional, Tuple, Union

from repro.core import experiment as _exp
from repro.core import scale as _scale
from repro.replay import engine as _replay
from repro.core.experiment import ScenarioConfig, SerializableResult
from repro.errors import ExperimentError, FaultError
from repro.faults import FaultSpec, parse_fault_spec
from repro.obs import live as _live
from repro.obs.live import TelemetryRecorder

__all__ = ["Kind", "KINDS", "run", "normalize_kind"]


@dataclass(frozen=True)
class Kind:
    """One runnable experiment kind: its implementation and parameter set."""

    name: str
    runner: Callable[..., SerializableResult]
    result_type: type
    #: Keyword parameters the kind accepts (beyond config/scheme/faults).
    params: Tuple[str, ...]
    #: Parameters that must be supplied (no sensible default exists).
    required: Tuple[str, ...] = ()
    #: Does the kind need a scheme (baseline ``None`` not meaningful)?
    requires_scheme: bool = False


#: Every runnable experiment, by its hyphenated campaign-layer name.
KINDS: Dict[str, Kind] = {
    kind.name: kind
    for kind in (
        Kind(
            name="effectiveness",
            runner=_exp._run_effectiveness,
            result_type=_exp.EffectivenessResult,
            params=("technique",),
        ),
        Kind(
            name="false-positives",
            runner=_exp._run_false_positives,
            result_type=_exp.FalsePositiveResult,
            params=(
                "duration",
                "join_rate",
                "nic_swap_rate",
                "reannounce_rate",
                "max_dhcp_hosts",
            ),
        ),
        Kind(
            name="detection-latency",
            runner=_exp._run_detection_latency,
            result_type=_exp.LatencyResult,
            params=("poison_rate",),
            required=("poison_rate",),
            requires_scheme=True,
        ),
        Kind(
            name="overhead",
            runner=_exp._run_overhead,
            result_type=_exp.OverheadResult,
            params=("n_hosts", "resolutions_per_host", "seed"),
        ),
        Kind(
            name="resolution-latency",
            runner=_exp._run_resolution_latency,
            result_type=_exp.ResolutionLatencyResult,
            params=("n_resolutions", "seed"),
        ),
        Kind(
            name="interception-timeline",
            runner=_exp._run_interception_timeline,
            result_type=_exp.InterceptionTimeline,
            params=("duration", "attack_at", "ping_rate", "bin_seconds"),
        ),
        Kind(
            name="footprint",
            runner=_exp._run_footprint,
            result_type=_exp.FootprintResult,
            params=("n_hosts", "settle", "seed"),
        ),
        Kind(
            name="controller-failover",
            runner=_exp._run_controller_failover,
            result_type=_exp.FailoverResult,
            params=("fail_mode", "poison_interval"),
            requires_scheme=True,
        ),
        Kind(
            name="dhcp-starvation",
            runner=_exp._run_dhcp_starvation,
            result_type=_exp.StarvationResult,
            params=("duration", "rate_per_second", "greedy"),
        ),
        Kind(
            name="campus-churn",
            runner=_scale._run_campus_churn,
            result_type=_scale.CampusScaleResult,
            params=(
                "buildings",
                "leaves_per_building",
                "hosts_per_leaf",
                "talkers",
                "duration",
                "shards",
            ),
        ),
        Kind(
            name="replay",
            runner=_replay._run_replay,
            result_type=_replay.ReplayResult,
            params=("source", "window", "drain"),
            required=("source",),
        ),
    )
}


def normalize_kind(kind: str) -> str:
    """Accept underscore spellings (``resolution_latency``) too."""
    return str(kind).strip().replace("_", "-")


def _fold_faults(
    config: Optional[ScenarioConfig],
    faults: Union[str, FaultSpec, None],
) -> Optional[ScenarioConfig]:
    """Fold a ``faults`` argument into the config's ``fault_spec`` field."""
    if faults is None:
        return config
    try:
        spec = parse_fault_spec(faults)
    except FaultError as exc:
        raise ExperimentError(f"invalid faults argument: {exc}") from None
    if isinstance(faults, FaultSpec):
        text = faults.spec_string or None
    else:
        text = str(faults).strip() or None
        if text is not None and text.lower() == "none":
            text = None
    if spec is None and text is None and config is None:
        return None
    base = config if config is not None else ScenarioConfig()
    if base.fault_spec is not None and text is not None:
        raise ExperimentError(
            "faults given both in config.fault_spec "
            f"({base.fault_spec!r}) and as faults= ({text!r})"
        )
    return replace(base, fault_spec=text) if text is not None else base


def run(
    kind: str,
    config: Optional[ScenarioConfig] = None,
    *,
    scheme: Optional[str] = None,
    faults: Union[str, FaultSpec, None] = None,
    scheme_kwargs: Optional[Mapping[str, object]] = None,
    telemetry: Optional["TelemetryRecorder"] = None,
    **params,
) -> SerializableResult:
    """Run one experiment ``kind`` and return its frozen result.

    Parameters
    ----------
    kind:
        A :data:`KINDS` name (``"effectiveness"``, ``"overhead"``, ...).
    config:
        Scenario overrides; each kind falls back to its historical
        default when omitted.
    scheme:
        Scheme registry key or ``+``-joined stack spec; ``None`` runs
        the undefended baseline (rejected for kinds that need a scheme).
    faults:
        Compact impairment spec string or :class:`~repro.faults.FaultSpec`,
        folded into ``config.fault_spec`` (serialized verbatim).
    scheme_kwargs:
        Keyword arguments forwarded to the scheme factory.
    telemetry:
        Optional :class:`~repro.obs.live.TelemetryRecorder` installed as
        the process default for the duration of this call, so the
        simulators the kind builds internally attach it and stream a
        live time series of the run.
    **params:
        Kind-specific parameters, validated against ``KINDS[kind].params``.
    """
    key = normalize_kind(kind)
    spec = KINDS.get(key)
    if spec is None:
        raise ExperimentError(
            f"unknown experiment kind {kind!r}; known: {sorted(KINDS)}"
        )
    unknown = set(params) - set(spec.params)
    if unknown:
        raise ExperimentError(
            f"{spec.name}: unknown parameter(s) {sorted(unknown)}; "
            f"allowed: {sorted(spec.params)}"
        )
    missing = [name for name in spec.required if name not in params]
    if missing:
        raise ExperimentError(
            f"{spec.name}: missing required parameter(s) {missing}"
        )
    if spec.requires_scheme and scheme is None:
        raise ExperimentError(
            f"{spec.name}: needs a scheme; the undefended baseline "
            "(scheme=None) is not meaningful here"
        )
    extra = dict(scheme_kwargs or {})
    overlap = set(extra) & (set(params) | {"config", "scheme_key"})
    if overlap:
        raise ExperimentError(
            f"{spec.name}: scheme_kwargs collide with parameters: {sorted(overlap)}"
        )
    config = _fold_faults(config, faults)
    if telemetry is None:
        return spec.runner(scheme, config=config, **params, **extra)
    with _live.session(telemetry):
        return spec.runner(scheme, config=config, **params, **extra)
