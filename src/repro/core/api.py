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
message.  Each entry also carries what a campaign sweeps (variant keys
with their types and fallbacks, default variants, scenario defaults)
and aggregates (metrics), so adding a kind is one :class:`Kind` entry.  ``faults`` (a compact spec string or a
:class:`~repro.faults.FaultSpec`) is folded into the scenario config's
``fault_spec`` field, serialized verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
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
    """One runnable experiment kind: its implementation, parameter set
    and what a campaign sweeps and aggregates of it."""

    name: str
    runner: Callable[..., SerializableResult]
    result_type: type
    #: Keyword parameters the kind accepts (beyond config/scheme/faults).
    params: Tuple[str, ...]
    #: Result fields a campaign aggregates, in table-column order.
    metrics: Tuple[str, ...]
    #: Campaign variant keys, each ``key -> (type, fallback)``: a task
    #: passes every key to the runner, cast to its type, with the
    #: fallback where the task's variant omits it.  ``trace`` feeds the
    #: ``source`` parameter.
    variant_keys: Mapping[str, Tuple[type, object]]
    #: The variants a campaign sweeps when its spec names none.
    default_variants: Tuple[Mapping[str, object], ...]
    #: Parameters that must be supplied (no sensible default exists).
    required: Tuple[str, ...] = ()
    #: Does the kind need a scheme (baseline ``None`` not meaningful)?
    requires_scheme: bool = False
    #: Campaign scenario defaults; a task's own scenario overrides them.
    scenario_defaults: Mapping[str, object] = field(default_factory=dict)
    #: Does the runner apply ``config.fault_spec``?  A kind that does not
    #: refuses a fault spec rather than ignoring it.
    takes_faults: bool = True


#: Scenario defaults of the historical no-attack measurements (overhead,
#: resolution-latency and footprint built their own config with a Linux
#: victim).
_QUIET = {"victim_profile": "linux"}

#: Every runnable experiment, by its hyphenated campaign-layer name.
KINDS: Dict[str, Kind] = {
    kind.name: kind
    for kind in (
        Kind(
            name="effectiveness",
            runner=_exp._run_effectiveness,
            result_type=_exp.EffectivenessResult,
            params=("technique",),
            metrics=(
                "prevented",
                "detected",
                "detection_latency",
                "tp_alerts",
                "fp_alerts",
                "victim_poisoned_seconds",
                "packets_intercepted",
            ),
            variant_keys={"technique": (str, "reply")},
            default_variants=({"technique": "reply"},),
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
            metrics=("fp_alerts", "fp_per_hour", "info_alerts"),
            variant_keys={"duration": (float, 600.0)},
            default_variants=({"duration": 600.0},),
        ),
        Kind(
            name="detection-latency",
            runner=_exp._run_detection_latency,
            result_type=_exp.LatencyResult,
            params=("poison_rate",),
            metrics=("detected", "detection_latency"),
            variant_keys={"poison_rate": (float, 1.0)},
            default_variants=({"poison_rate": 1.0},),
            required=("poison_rate",),
            requires_scheme=True,
        ),
        Kind(
            name="overhead",
            runner=_exp._run_overhead,
            result_type=_exp.OverheadResult,
            params=("n_hosts", "resolutions_per_host", "seed"),
            metrics=(
                "frames_per_resolution",
                "bytes_per_resolution",
                "arp_frames",
                "scheme_messages",
            ),
            variant_keys={
                "n_hosts": (int, 8),
                "resolutions_per_host": (int, 4),
            },
            default_variants=({"n_hosts": 8},),
            scenario_defaults=_QUIET,
        ),
        Kind(
            name="resolution-latency",
            runner=_exp._run_resolution_latency,
            result_type=_exp.ResolutionLatencyResult,
            params=("n_resolutions", "seed"),
            metrics=("mean_latency", "max_latency"),
            variant_keys={"n_resolutions": (int, 20)},
            default_variants=({"n_resolutions": 20},),
            # Historical shape: a small 4-host LAN.
            scenario_defaults={**_QUIET, "n_hosts": 4},
        ),
        Kind(
            name="interception-timeline",
            runner=_exp._run_interception_timeline,
            result_type=_exp.InterceptionTimeline,
            params=("duration", "attack_at", "ping_rate", "bin_seconds"),
            metrics=("peak_ratio", "mean_ratio"),
            variant_keys={
                "duration": (float, 120.0),
                "attack_at": (float, 30.0),
                "ping_rate": (float, 2.0),
                "bin_seconds": (float, 10.0),
            },
            default_variants=({"duration": 120.0},),
        ),
        Kind(
            name="footprint",
            runner=_exp._run_footprint,
            result_type=_exp.FootprintResult,
            params=("n_hosts", "settle", "seed"),
            metrics=("state_entries", "scheme_messages", "switch_cam_entries"),
            variant_keys={"n_hosts": (int, 8), "settle": (float, 30.0)},
            default_variants=({"n_hosts": 8},),
            scenario_defaults=_QUIET,
        ),
        Kind(
            name="controller-failover",
            runner=_exp._run_controller_failover,
            result_type=_exp.FailoverResult,
            params=("fail_mode", "poison_interval"),
            metrics=(
                "guard_drops",
                "fallback_entered",
                "recovered",
                "poisoned_during_flap",
                "poisoned_outside_flap",
                "evictions",
            ),
            variant_keys={
                "fail_mode": (str, "open"),
                "poison_interval": (float, 0.5),
            },
            default_variants=({"fail_mode": "open"}, {"fail_mode": "closed"}),
            requires_scheme=True,
        ),
        Kind(
            name="dhcp-starvation",
            runner=_exp._run_dhcp_starvation,
            result_type=_exp.StarvationResult,
            params=("duration", "rate_per_second", "greedy"),
            metrics=("leases_captured", "pool_free", "exhausted"),
            variant_keys={
                "duration": (float, 30.0),
                "rate_per_second": (float, 30.0),
            },
            default_variants=({"duration": 30.0},),
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
            metrics=(
                "deliveries",
                "deliveries_per_sec",
                "events",
                "alerts",
                "wall_seconds",
            ),
            variant_keys={
                "buildings": (int, 4),
                "leaves_per_building": (int, 2),
                "hosts_per_leaf": (int, 24),
                "talkers": (int, None),
                "duration": (float, 2.0),
                "shards": (int, 0),
            },
            default_variants=({"shards": 0}, {"shards": 2}),
            takes_faults=False,
        ),
        Kind(
            name="replay",
            runner=_replay._run_replay,
            result_type=_replay.ReplayResult,
            params=("source", "window", "drain"),
            metrics=(
                "frames",
                "delivered",
                "alerts",
                "frames_per_sec",
                "wall_seconds",
            ),
            variant_keys={
                "trace": (str, "synthetic:"),
                "window": (int, _replay.DEFAULT_WINDOW),
                "drain": (float, 0.0),
            },
            default_variants=({"trace": "synthetic:"},),
            required=("source",),
            takes_faults=False,
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
        folded into ``config.fault_spec`` (serialized verbatim).  Kinds
        that apply no faults (``campus-churn``, ``replay``) refuse one.
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
    if not spec.takes_faults and config is not None and config.fault_spec is not None:
        raise ExperimentError(
            f"{spec.name}: applies no faults, refusing fault spec "
            f"{config.fault_spec!r}"
        )
    if telemetry is None:
        return spec.runner(scheme, config=config, **params, **extra)
    with _live.session(telemetry):
        return spec.runner(scheme, config=config, **params, **extra)
