"""Declarative experiment-campaign grids.

A :class:`CampaignSpec` names one experiment kind and the grid to sweep:
schemes × variants (experiment parameters) × ``seeds`` independent
trials.  :meth:`CampaignSpec.tasks` expands the grid into self-contained
:class:`CampaignTask` cells that can be shipped to worker processes and
hashed for the result cache.

Determinism contract
--------------------
Each task's seed is derived with :func:`derive_seed` from the *content*
of its cell — root seed, experiment kind, scheme, variant, scenario
overrides, and trial index — never from the task's position in the grid.
Reordering schemes, adding variants, or changing the worker count
therefore never changes the result of any individual cell, and two
campaigns with the same root seed produce bit-identical aggregates.

A spec whose ``scenario`` pins ``seed`` instead runs every task at
exactly that seed (the paper's artifacts run each cell at one fixed
config seed).  Such a spec has one trial per cell, ``seeds=1``.  The
seed is part of the task, so the cache key covers it either way.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields
from typing import Dict, List, Mapping, Optional, Tuple

from repro.core import api
from repro.core.experiment import ScenarioConfig
from repro.errors import CampaignError, FaultError
from repro.faults import parse_fault_spec
from repro.schemes.registry import SCHEME_FACTORIES, validate_scheme_spec

__all__ = [
    "derive_seed",
    "canonical_params",
    "CampaignTask",
    "CampaignSpec",
    "check_variant",
    "resolve_task",
    "execute_task",
]


def derive_seed(root_seed: int, *parts: object) -> int:
    """Derive an independent seed from ``root_seed`` and string-able parts.

    Uses a stable cryptographic hash (never Python's randomized ``hash``)
    so the same inputs give the same seed on every run, interpreter, and
    platform.  Distinct part tuples give statistically independent seeds.
    """
    material = json.dumps(
        [int(root_seed)] + [str(p) for p in parts], separators=(",", ":")
    )
    digest = hashlib.sha256(material.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % (2**31 - 1)


def canonical_params(params: Mapping[str, object]) -> str:
    """A stable, order-independent text form of a parameter mapping."""
    if not params:
        return "-"
    return ",".join(f"{k}={params[k]}" for k in sorted(params))


def _canonical_json(value: object) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class CampaignTask:
    """One cell of a campaign grid: a single seeded experiment run.

    Tasks are self-contained (they carry the scenario overrides, not a
    reference back to the spec) so that a task dict alone determines the
    computation — that is what the result cache hashes.
    """

    experiment: str
    scheme: Optional[str]
    variant: Mapping[str, object]
    scenario: Mapping[str, object]
    trial: int
    seed: int

    @property
    def scheme_label(self) -> str:
        return self.scheme or "none"

    @property
    def cell(self) -> Tuple[str, str]:
        """The aggregation group this task belongs to (all trials share it)."""
        return (self.scheme_label, canonical_params(self.variant))

    def key(self) -> str:
        """Stable unique identifier of this task within any campaign."""
        return _canonical_json(self.to_dict())

    def to_dict(self) -> Dict[str, object]:
        return {
            "experiment": self.experiment,
            "scheme": self.scheme,
            "variant": dict(self.variant),
            "scenario": dict(self.scenario),
            "trial": self.trial,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "CampaignTask":
        payload = dict(data)
        unknown = set(payload) - {f.name for f in fields(cls)}
        if unknown:
            raise CampaignError(f"unknown task fields {sorted(unknown)}")
        try:
            return cls(**payload)
        except TypeError as exc:
            raise CampaignError(f"invalid task payload: {exc}") from None


@dataclass(frozen=True)
class CampaignSpec:
    """A sweep grid: one experiment kind × schemes × variants × seeds."""

    experiment: str = "effectiveness"
    schemes: Tuple[Optional[str], ...] = (None,)
    variants: Tuple[Mapping[str, object], ...] = ()
    seeds: int = 5
    root_seed: int = 7
    scenario: Mapping[str, object] = field(default_factory=dict)
    name: str = ""
    #: Fault-injection sweep axis: each entry is a compact
    #: ``repro.faults`` spec string (or ``None`` for a clean LAN) and
    #: multiplies the grid like a scheme does.  The spec lands in each
    #: task's variant under the ``"faults"`` key, so cells, derived
    #: seeds, and cache keys all distinguish fault levels automatically.
    faults: Tuple[Optional[str], ...] = (None,)
    #: Trace sweep axis (``replay`` experiment only): each entry is a
    #: ``repro.replay`` source spec (``"pcap:PATH"``,
    #: ``"synthetic:rate=50k,churn=0.2"``) and multiplies the grid —
    #: schemes × traces sweep on the worker pool.  The spec lands in
    #: each task's variant under the ``"trace"`` key, exactly like the
    #: faults axis, so derived seeds and cache keys distinguish traces.
    traces: Tuple[Optional[str], ...] = (None,)

    def __post_init__(self) -> None:
        kind = api.KINDS.get(self.experiment)
        if kind is None:
            raise CampaignError(
                f"unknown experiment {self.experiment!r}; "
                f"known: {sorted(api.KINDS)}"
            )
        if self.seeds < 1:
            raise CampaignError(f"seeds must be >= 1, got {self.seeds}")
        if "seed" in self.scenario and self.seeds != 1:
            raise CampaignError(
                f"scenario pins seed={self.scenario['seed']!r}, which runs "
                f"every task at that one seed; seeds must be 1, got {self.seeds}"
            )
        if not self.schemes:
            raise CampaignError("a campaign needs at least one scheme")
        for scheme in self.schemes:
            if scheme is not None and not validate_scheme_spec(scheme):
                raise CampaignError(
                    f"unknown scheme {scheme!r}; known: "
                    f"{sorted(SCHEME_FACTORIES)}, '+'-joined stacks of "
                    "those (e.g. 'dai+arpwatch'), or None for the baseline"
                )
            if scheme is None and kind.requires_scheme:
                raise CampaignError(
                    f"experiment {self.experiment!r} needs a scheme; "
                    "None (baseline) is not allowed"
                )
        for variant in self.variants:
            check_variant(kind, variant)
        if not self.faults:
            raise CampaignError(
                "faults must be non-empty; use (None,) for a clean LAN"
            )
        for fault in self.faults:
            try:
                parse_fault_spec(fault)
            except FaultError as exc:
                raise CampaignError(f"invalid fault spec {fault!r}: {exc}") from None
        has_variant_faults = any("faults" in v for v in self.variants)
        sweeping_faults = tuple(self.faults) != (None,)
        if has_variant_faults:
            if sweeping_faults:
                raise CampaignError(
                    "give faults either as the faults= sweep axis or "
                    "inside variants, not both"
                )
            for variant in self.variants:
                try:
                    parse_fault_spec(variant.get("faults"))
                except FaultError as exc:
                    raise CampaignError(
                        f"invalid variant fault spec: {exc}"
                    ) from None
        if not kind.takes_faults and (
            sweeping_faults
            or has_variant_faults
            or self.scenario.get("fault_spec") is not None
        ):
            raise CampaignError(
                f"experiment {self.experiment!r} applies no faults; "
                "drop the faults sweep, variant or fault_spec"
            )
        if "fault_spec" in self.scenario and (sweeping_faults or has_variant_faults):
            raise CampaignError(
                "scenario already pins fault_spec; a faults sweep would "
                "silently override it — drop one of the two"
            )
        if not self.traces:
            raise CampaignError(
                "traces must be non-empty; use (None,) when not sweeping traces"
            )
        sweeping_traces = tuple(self.traces) != (None,)
        has_variant_trace = any("trace" in v for v in self.variants)
        if sweeping_traces and self.experiment != "replay":
            raise CampaignError(
                f"the traces axis only applies to the 'replay' experiment, "
                f"not {self.experiment!r}"
            )
        if sweeping_traces and has_variant_trace:
            raise CampaignError(
                "give traces either as the traces= sweep axis or inside "
                "variants, not both"
            )
        from repro.errors import ReplayError
        from repro.replay import open_source

        for trace in self.traces:
            if trace is None:
                continue
            try:
                open_source(trace)
            except ReplayError as exc:
                raise CampaignError(
                    f"invalid trace spec {trace!r}: {exc}"
                ) from None
        # Validate the scenario overrides eagerly: a typo should fail at
        # spec construction, not inside a worker process.
        ScenarioConfig.from_dict(dict(self.scenario))

    @property
    def kind(self) -> api.Kind:
        return api.KINDS[self.experiment]

    def effective_variants(self) -> Tuple[Mapping[str, object], ...]:
        return self.variants if self.variants else self.kind.default_variants

    def tasks(self) -> List[CampaignTask]:
        """Expand the grid, deterministically, in cell-major order."""
        out: List[CampaignTask] = []
        scenario = dict(self.scenario)
        for scheme in self.schemes:
            for fault in self.faults:
                for trace in self.traces:
                    for variant in self.effective_variants():
                        cell_variant = dict(variant)
                        if fault is not None:
                            # The fault spec rides in the variant so cells,
                            # content-derived seeds, and cache keys all see it.
                            cell_variant["faults"] = fault
                        if trace is not None:
                            # Same rule for the trace axis.
                            cell_variant["trace"] = trace
                        for trial in range(self.seeds):
                            if "seed" in scenario:
                                seed = int(scenario["seed"])
                            else:
                                seed = derive_seed(
                                    self.root_seed,
                                    self.experiment,
                                    scheme or "none",
                                    _canonical_json(cell_variant),
                                    _canonical_json(scenario),
                                    trial,
                                )
                            out.append(
                                CampaignTask(
                                    experiment=self.experiment,
                                    scheme=scheme,
                                    variant=cell_variant,
                                    scenario=scenario,
                                    trial=trial,
                                    seed=seed,
                                )
                            )
        return out

    def to_dict(self) -> Dict[str, object]:
        return {
            "experiment": self.experiment,
            "schemes": list(self.schemes),
            "variants": [dict(v) for v in self.variants],
            "seeds": self.seeds,
            "root_seed": self.root_seed,
            "scenario": dict(self.scenario),
            "name": self.name,
            "faults": list(self.faults),
            "traces": list(self.traces),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "CampaignSpec":
        payload = dict(data)
        unknown = set(payload) - {f.name for f in fields(cls)}
        if unknown:
            raise CampaignError(f"unknown spec fields {sorted(unknown)}")
        if "schemes" in payload:
            payload["schemes"] = tuple(payload["schemes"])
        if "variants" in payload:
            payload["variants"] = tuple(dict(v) for v in payload["variants"])
        if "faults" in payload:
            payload["faults"] = tuple(payload["faults"])
        if "traces" in payload:
            payload["traces"] = tuple(payload["traces"])
        return cls(**payload)


def _scenario_config(
    task: CampaignTask, defaults: Mapping[str, object]
) -> ScenarioConfig:
    """Task scenario -> config; ``defaults`` yield to the task's scenario.

    A task variant's ``"faults"`` entry becomes the config's
    ``fault_spec`` (verbatim), which is how the campaign fault sweep
    reaches the scenario builder.
    """
    payload = dict(defaults)
    payload.update(task.scenario)
    payload["seed"] = task.seed
    fault = task.variant.get("faults")
    if fault is not None:
        payload["fault_spec"] = str(fault)
    return ScenarioConfig.from_dict(payload)


def _variant_value(kind: api.Kind, key: str, value: object) -> object:
    """``value`` cast to the type ``kind`` declares for variant ``key``.

    ``None`` passes through only where the key's fallback is ``None``
    (campus-churn's ``talkers``: the runner picks its own default).
    """
    cast, fallback = kind.variant_keys[key]
    if value is None and fallback is None:
        return None
    return cast(value)


def check_variant(kind: api.Kind, variant: Mapping[str, object]) -> None:
    """Raise :class:`CampaignError` unless ``kind`` understands ``variant``.

    Every key must be one of the kind's variant keys or the universal
    ``"faults"``, and every value castable to its key's declared type.
    The variant itself stays as given, so derived seeds and cache keys
    do not move.
    """
    bad = set(variant) - set(kind.variant_keys) - {"faults"}
    if bad:
        raise CampaignError(
            f"variant keys {sorted(bad)} not understood by "
            f"{kind.name!r}; allowed: "
            f"{sorted(kind.variant_keys)} (+ 'faults')"
        )
    for key, value in variant.items():
        if key == "faults":
            continue
        try:
            _variant_value(kind, key, value)
        except (TypeError, ValueError):
            cast = kind.variant_keys[key][0].__name__
            raise CampaignError(
                f"{kind.name!r}: variant {key}={value!r} "
                f"is not a valid {cast}"
            ) from None


def resolve_task(
    task: CampaignTask,
) -> Tuple[api.Kind, ScenarioConfig, Dict[str, object]]:
    """The kind, scenario config and runner parameters ``task`` runs with.

    Every variant key reaches the runner, cast to its declared type with
    the kind's fallback where the variant omits it; the trace axis
    becomes the ``source`` parameter, and ``faults`` is no parameter but
    the config's ``fault_spec``.
    """
    kind = api.KINDS.get(task.experiment)
    if kind is None:
        raise CampaignError(f"unknown experiment {task.experiment!r}")
    params = {
        "source" if key == "trace" else key: _variant_value(
            kind, key, task.variant.get(key, fallback)
        )
        for key, (_, fallback) in kind.variant_keys.items()
    }
    return kind, _scenario_config(task, kind.scenario_defaults), params


def execute_task(task: CampaignTask) -> Dict[str, object]:
    """Run one task and return its result as a JSON-safe dict.

    This is the unit of work shipped to campaign worker processes; the
    dict form crosses the process boundary and lands in the cache.  A
    worker adds the task's metrics delta to it (see
    :func:`repro.campaign.runner.run_campaign`); a serial run counts
    straight into this process's registry.
    """
    kind, config, params = resolve_task(task)
    return api.run(kind.name, config, scheme=task.scheme, **params).to_dict()
