"""Experiment harness: scenario construction and the measured runs.

One :class:`Scenario` is the standard testbed shape — a switched LAN
with a gateway, a monitor on a mirror port, ``n_hosts`` user stations
and one attacker — and each ``_run_*`` function below performs one of the
paper's measurements on it, reached through :func:`repro.core.api.run`.
Everything is seeded and deterministic.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import asdict, dataclass, field, fields, replace
from functools import partial
from typing import Dict, List, Mapping, Optional, Tuple

from repro.attacks.arp_poison import POISON_TECHNIQUES
from repro.attacks.dhcp_starvation import DhcpStarvation
from repro.attacks.mitm import MitmAttack
from repro.core.metrics import (
    GroundTruth,
    PoisonTracker,
    detection_latency,
    mean,
    poisoned_seconds,
    score_alerts,
    was_ever_poisoned,
)
from repro.errors import ExperimentError, FaultError
from repro.faults import apply_faults, parse_fault_spec
from repro.l2.topology import DEFAULT_SWITCH_PORTS, Lan
from repro.net.addresses import Ipv4Address
from repro.schemes.base import Scheme
from repro.schemes.registry import make_defense
from repro.schemes.sdn_guard import SdnArpGuard
from repro.schemes.stack import SchemeStack
from repro.sim.simulator import Simulator
from repro.sim.trace import TraceRecorder
from repro.stack.host import Host
from repro.stack.os_profiles import LINUX, PROFILES, OsProfile, WINDOWS_XP
from repro.workloads.benign import BenignTraffic, ChurnWorkload

__all__ = [
    "ScenarioConfig",
    "Scenario",
    "SerializableResult",
    "EffectivenessResult",
    "FalsePositiveResult",
    "LatencyResult",
    "OverheadResult",
    "ResolutionLatencyResult",
    "InterceptionTimeline",
    "FootprintResult",
    "FailoverResult",
    "StarvationResult",
    "RESULT_TYPES",
    "result_from_dict",
]


def _tuplify(value):
    """Recursively turn lists back into tuples (JSON loses tuple-ness)."""
    if isinstance(value, (list, tuple)):
        return tuple(_tuplify(v) for v in value)
    return value


def _listify(value):
    """Recursively turn tuples into lists (what JSON would produce anyway,
    so ``to_dict()`` output compares equal to a reloaded payload)."""
    if isinstance(value, (list, tuple)):
        return [_listify(v) for v in value]
    return value


class SerializableResult:
    """JSON-safe ``to_dict``/``from_dict`` round-trip for result dataclasses.

    Campaign workers return results across process boundaries and the
    on-disk result cache stores them as JSON, so every result type must
    survive ``from_dict(json.loads(json.dumps(to_dict())))`` unchanged.
    Tuple-typed fields are restored from the lists JSON produces.
    """

    def to_dict(self) -> Dict[str, object]:
        data = {name: _listify(value) for name, value in asdict(self).items()}
        data["kind"] = type(self).__name__
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "SerializableResult":
        payload = dict(data)
        kind = payload.pop("kind", cls.__name__)
        if kind != cls.__name__:
            raise ExperimentError(
                f"cannot deserialize a {kind!r} payload as {cls.__name__}"
            )
        kwargs = {}
        for f in fields(cls):
            if f.name not in payload:
                raise ExperimentError(
                    f"{cls.__name__}.from_dict: missing field {f.name!r}"
                )
            kwargs[f.name] = _tuplify(payload.pop(f.name))
        # Underscore-prefixed keys are side-channel payload (e.g. the
        # campaign transport's _obs metrics), never result fields.
        unknown = [k for k in payload if not k.startswith("_")]
        if unknown:
            raise ExperimentError(
                f"{cls.__name__}.from_dict: unknown fields {sorted(unknown)}"
            )
        return cls(**kwargs)


@dataclass(frozen=True)
class ScenarioConfig:
    """Knobs of the standard testbed."""

    seed: int = 7
    n_hosts: int = 8
    network: str = "192.168.88.0/24"
    victim_profile: OsProfile = WINDOWS_XP
    other_profile: OsProfile = LINUX
    with_monitor: bool = True
    with_dhcp: bool = False
    warmup: float = 5.0
    attack_duration: float = 30.0
    cooldown: float = 5.0
    #: Compact ``repro.faults`` impairment spec (``"loss=0.05,jitter=2ms"``),
    #: carried verbatim — like ``scheme=`` stack specs — so cached campaign
    #: cells stay byte-reproducible.  ``None``/``""`` means a clean LAN.
    fault_spec: Optional[str] = None

    def __post_init__(self) -> None:
        # The testbed's victim is the first user: a LAN without one
        # cannot run any experiment.
        if self.n_hosts < 1:
            raise ExperimentError(f"n_hosts must be at least 1, got {self.n_hosts}")
        # A typo'd spec should fail at config construction, not mid-run
        # inside a campaign worker.
        try:
            parse_fault_spec(self.fault_spec)
        except FaultError as exc:
            raise ExperimentError(f"invalid fault_spec: {exc}") from None

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe form; OS profiles are stored by name."""
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data["victim_profile"] = self.victim_profile.name
        data["other_profile"] = self.other_profile.name
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "ScenarioConfig":
        """Build a config from a (possibly partial) dict of overrides."""
        payload = dict(data)
        unknown = set(payload) - {f.name for f in fields(cls)}
        if unknown:
            raise ExperimentError(
                f"ScenarioConfig.from_dict: unknown fields {sorted(unknown)}"
            )
        for key in ("victim_profile", "other_profile"):
            name = payload.get(key)
            if isinstance(name, str):
                try:
                    payload[key] = PROFILES[name]
                except KeyError:
                    raise ExperimentError(
                        f"unknown OS profile {name!r}; known: {sorted(PROFILES)}"
                    ) from None
        return cls(**payload)


class Scenario:
    """The standard testbed, constructed from a :class:`ScenarioConfig`."""

    def __init__(self, config: ScenarioConfig) -> None:
        self.config = config
        self.sim = Simulator(seed=config.seed)
        # Users, gateway, attacker and monitor, plus one port for a
        # scheme's own server (S-ARP's AKD).  Only a LAN too big for the
        # default switch gets a bigger one.
        stations = config.n_hosts + 3 + int(config.with_monitor)
        self.lan = Lan(
            self.sim,
            network=config.network,
            switch_ports=max(DEFAULT_SWITCH_PORTS, stations),
        )
        if config.with_monitor:
            self.lan.add_monitor()
        if config.with_dhcp:
            self.lan.enable_dhcp()
        self.users: List[Host] = []
        for i in range(config.n_hosts):
            profile = config.victim_profile if i == 0 else config.other_profile
            self.users.append(self.lan.add_host(f"user-{i}", profile=profile))
        self.victim = self.users[0]
        self.attacker = self.lan.add_host("mallory")
        #: Live fault machinery, or ``None`` on a clean LAN.
        self.fault_injector = apply_faults(
            parse_fault_spec(config.fault_spec), self.lan
        )
        #: The scheme given to :meth:`install`, uninstalled on release.
        self.scheme: Optional[Scheme] = None
        self._activities: list = []

    def __enter__(self) -> "Scenario":
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()

    def release(self) -> None:
        """Free this testbed by reference counting, with no collection.

        Stops every attack and workload begun through :meth:`start`,
        uninstalls the scheme given to :meth:`install` and the fault
        injector, and releases the LAN
        (:meth:`repro.l2.topology.Lan.release`).  ``with Scenario(config)
        as scenario:`` calls it on exit, also when the run raises.
        Counters, alerts and cache contents stay readable on any object
        a caller still holds.  Idempotent.
        """
        while self._activities:
            self._activities.pop().stop()
        if self.scheme is not None:
            self.scheme.uninstall()
        if self.fault_injector is not None:
            self.fault_injector.uninstall()
        self.lan.release()

    @property
    def gateway(self) -> Host:
        return self.lan.gateway

    def protected_hosts(self) -> List[Host]:
        """Everything the defender administers (not the attacker's box)."""
        return [
            h
            for h in self.lan.hosts.values()
            if h.ip is not None and h is not self.attacker
        ]

    def install(self, scheme: Optional[Scheme]) -> None:
        if scheme is not None:
            self.scheme = scheme
            scheme.install(self.lan, protected=self.protected_hosts())

    def start(self, activity) -> None:
        """Start an attack or workload; :meth:`release` stops it."""
        self._activities.append(activity)
        activity.start()

    def warm_caches(self) -> None:
        """Victim <-> gateway exchange before the attack (realistic state)."""
        self.victim.ping(self.gateway.ip)
        self.sim.run(until=self.sim.now + self.config.warmup)

    def ground_truth(
        self, attack, targeted: Tuple[Ipv4Address, ...]
    ) -> GroundTruth:
        return GroundTruth(
            true_bindings=self.lan.true_bindings(),
            attacker_macs={self.attacker.mac},
            attack_intervals=attack.active_intervals,
            targeted_ips=set(targeted),
        )


def _make(scheme_key: Optional[str], **kwargs) -> Optional[Scheme]:
    """Build the defense under test from a scheme key or stack spec.

    ``scheme_key`` may be a single registry key (``"dai"``) or an
    ordered stack spec (``"dai+arpwatch"``); ``None`` runs the baseline
    with no defense.  Result dataclasses record the spec string
    verbatim, so stacks round-trip through ``result_from_dict`` exactly
    like single schemes.
    """
    return make_defense(scheme_key, **kwargs) if scheme_key is not None else None


# ======================================================================
# Table 2 — effectiveness per (scheme, technique)
# ======================================================================
@dataclass(frozen=True)
class EffectivenessResult(SerializableResult):
    scheme: str
    technique: str
    prevented: bool
    detected: bool
    detection_latency: Optional[float]
    tp_alerts: int
    fp_alerts: int
    victim_poisoned_seconds: float
    packets_intercepted: int

    @property
    def outcome(self) -> str:
        """The cell of Table 2: 'prevented' / 'detected' / 'missed'."""
        if self.prevented:
            return "prevented+detected" if self.detected else "prevented"
        return "detected" if self.detected else "missed"


def _run_effectiveness(
    scheme_key: Optional[str],
    technique: str = "reply",
    config: Optional[ScenarioConfig] = None,
    **scheme_kwargs,
) -> EffectivenessResult:
    """Run one MITM attack with ``technique`` against one scheme."""
    if technique not in POISON_TECHNIQUES:
        raise ExperimentError(f"unknown technique {technique!r}")
    config = config or ScenarioConfig()
    with Scenario(config) as scenario:
        scheme = _make(scheme_key, **scheme_kwargs)
        scenario.install(scheme)
        scenario.warm_caches()

        if technique == "reactive":
            # The reactive race only exists when the victim must re-resolve:
            # model the natural expiry of its gateway entry.
            scenario.victim.arp_cache.age_out(scenario.gateway.ip)
            scenario.gateway.arp_cache.age_out(scenario.victim.ip)

        attack_start = scenario.sim.now
        victim_watch = PoisonTracker(
            scenario.victim, scenario.gateway.ip, scenario.gateway.mac,
            windows=((attack_start, None),),
        )
        gateway_watch = PoisonTracker(
            scenario.gateway, scenario.victim.ip, scenario.victim.mac
        )
        mitm = MitmAttack(
            scenario.attacker, scenario.victim, scenario.gateway, technique=technique
        )
        scenario.start(mitm)
        cancel = scenario.sim.call_every(
            0.5, lambda: scenario.victim.ping(scenario.gateway.ip), name="victim-traffic"
        )
        scenario.sim.run(until=attack_start + config.attack_duration)
        mitm.stop()
        cancel()
        scenario.sim.run(until=scenario.sim.now + config.cooldown)

        targeted = (scenario.victim.ip, scenario.gateway.ip)
        truth = scenario.ground_truth(mitm, targeted)
        prevented = not (was_ever_poisoned(victim_watch) or was_ever_poisoned(gateway_watch))
        alerts = scheme.alerts if scheme is not None else []
        score = score_alerts(alerts, truth)
        latency = detection_latency(alerts, truth)
        (poisoned,) = poisoned_seconds(victim_watch, scenario.sim.now)
        return EffectivenessResult(
            scheme=scheme_key or "none",
            technique=technique,
            prevented=prevented,
            detected=score.tp_count > 0,
            detection_latency=latency,
            tp_alerts=score.tp_count,
            fp_alerts=score.fp_count,
            victim_poisoned_seconds=poisoned,
            packets_intercepted=mitm.frames_relayed,
        )


# ======================================================================
# Table 3 — false positives under benign churn
# ======================================================================
@dataclass(frozen=True)
class FalsePositiveResult(SerializableResult):
    scheme: str
    duration: float
    fp_alerts: int
    info_alerts: int
    churn_events: Dict[str, int]

    @property
    def fp_per_hour(self) -> float:
        return self.fp_alerts / (self.duration / 3600.0) if self.duration else 0.0


def _run_false_positives(
    scheme_key: Optional[str],
    duration: float = 1800.0,
    config: Optional[ScenarioConfig] = None,
    join_rate: float = 1 / 60.0,
    nic_swap_rate: float = 1 / 300.0,
    reannounce_rate: float = 1 / 120.0,
    max_dhcp_hosts: int = 6,
    **scheme_kwargs,
) -> FalsePositiveResult:
    """No attack at all: every actionable alert is a false positive.

    ``max_dhcp_hosts`` is deliberately small so joins cycle through
    leaves, producing the IP-reassignment (same address, new MAC) events
    that historically plague passive detectors.
    """
    config = config or ScenarioConfig(with_dhcp=True)
    if not config.with_dhcp:
        config = ScenarioConfig(**{**config.__dict__, "with_dhcp": True})
    with Scenario(config) as scenario:
        scheme = _make(scheme_key, **scheme_kwargs)
        scenario.install(scheme)
        traffic = BenignTraffic(scenario.lan, rate_per_host=0.2)
        churn = ChurnWorkload(
            scenario.lan,
            join_rate=join_rate,
            nic_swap_rate=nic_swap_rate,
            reannounce_rate=reannounce_rate,
            max_dhcp_hosts=max_dhcp_hosts,
        )
        start = scenario.sim.now
        scenario.start(traffic)
        scenario.start(churn)
        scenario.sim.run(until=start + duration)
        traffic.stop()
        churn.stop()
        truth = GroundTruth(
            true_bindings=scenario.lan.true_bindings(),
            attacker_macs=set(),
            attack_intervals=(),
            targeted_ips=set(),
        )
        alerts = scheme.alerts if scheme is not None else []
        score = score_alerts(alerts, truth)
        return FalsePositiveResult(
            scheme=scheme_key or "none",
            duration=duration,
            fp_alerts=score.fp_count,
            info_alerts=len(score.informational),
            churn_events=churn.event_counts(),
        )


# ======================================================================
# Figure 1 — detection latency vs attack rate
# ======================================================================
@dataclass(frozen=True)
class LatencyResult(SerializableResult):
    scheme: str
    poison_rate: float
    detection_latency: Optional[float]
    detected: bool


def _run_detection_latency(
    scheme_key: str,
    poison_rate: float = 1.0,
    config: Optional[ScenarioConfig] = None,
    **scheme_kwargs,
) -> LatencyResult:
    """How fast does a detector fire as the re-poisoning rate varies?"""
    if poison_rate <= 0:
        raise ExperimentError("poison_rate must be positive")
    config = config or ScenarioConfig()
    with Scenario(config) as scenario:
        scheme = _make(scheme_key, **scheme_kwargs)
        scenario.install(scheme)
        scenario.warm_caches()
        attack_start = scenario.sim.now
        mitm = MitmAttack(
            scenario.attacker,
            scenario.victim,
            scenario.gateway,
            technique="reply",
            interval=1.0 / poison_rate,
        )
        scenario.start(mitm)
        scenario.sim.run(until=attack_start + config.attack_duration)
        mitm.stop()
        truth = scenario.ground_truth(mitm, (scenario.victim.ip, scenario.gateway.ip))
        alerts = scheme.alerts if scheme is not None else []
        latency = detection_latency(alerts, truth)
        return LatencyResult(
            scheme=scheme_key,
            poison_rate=poison_rate,
            detection_latency=latency,
            detected=latency is not None,
        )


# ======================================================================
# Figure 2 — protocol overhead vs LAN size
# ======================================================================
@dataclass(frozen=True)
class OverheadResult(SerializableResult):
    scheme: str
    n_hosts: int
    resolutions: int
    arp_frames: int
    scheme_messages: int
    total_wire_bytes: int

    @property
    def frames_per_resolution(self) -> float:
        return (
            (self.arp_frames + self.scheme_messages) / self.resolutions
            if self.resolutions
            else 0.0
        )

    @property
    def bytes_per_resolution(self) -> float:
        return self.total_wire_bytes / self.resolutions if self.resolutions else 0.0


def _quiet_config(
    config: Optional[ScenarioConfig],
    seed: Optional[int],
    n_hosts: Optional[int],
    default_hosts: int,
) -> ScenarioConfig:
    """Config for the no-attack measurements (overhead/latency/footprint).

    These historically built their own ``ScenarioConfig`` (Linux victim,
    explicit ``seed``/``n_hosts``); a caller-supplied ``config`` now wins,
    with explicitly passed ``seed``/``n_hosts`` still overriding it.
    """
    if config is None:
        return ScenarioConfig(
            seed=7 if seed is None else seed,
            n_hosts=default_hosts if n_hosts is None else n_hosts,
            victim_profile=LINUX,
        )
    overrides: Dict[str, object] = {}
    if seed is not None:
        overrides["seed"] = seed
    if n_hosts is not None:
        overrides["n_hosts"] = n_hosts
    return replace(config, **overrides) if overrides else config


def _run_overhead(
    scheme_key: Optional[str],
    n_hosts: Optional[int] = None,
    resolutions_per_host: int = 4,
    seed: Optional[int] = None,
    config: Optional[ScenarioConfig] = None,
    **scheme_kwargs,
) -> OverheadResult:
    """Measure wire cost of address resolution under a scheme (no attack)."""
    config = _quiet_config(config, seed, n_hosts, default_hosts=16)
    n_hosts = config.n_hosts
    with Scenario(config) as scenario:
        scheme = _make(scheme_key, **scheme_kwargs)
        scenario.install(scheme)
        scenario.sim.run(until=1.0)  # quiesce installation traffic
        # Capture from here on only, and unbounded: every frame is counted.
        recorder = scenario.lan.switch.recorder = TraceRecorder(capacity=None)

        rng = scenario.sim.rng_stream("overhead/pairs")
        resolutions = 0
        when = scenario.sim.now
        for host in scenario.users:
            peers = rng.sample(
                [h for h in scenario.users if h is not host],
                k=min(resolutions_per_host, len(scenario.users) - 1),
            )
            for peer in peers:
                when += 0.05
                scenario.sim.schedule_at(
                    when, lambda h=host, p=peer: h.ping(p.ip), name="overhead-ping"
                )
                resolutions += 1
        scenario.sim.run(until=when + 5.0)

        from repro.packets.ethernet import EtherType, EthernetFrame

        arp_frames = 0
        for record in recorder.records:
            # Lazy view: only the ethertype is inspected here.
            frame = EthernetFrame.lazy(record.frame)
            if frame.ethertype == EtherType.ARP:
                arp_frames += 1
        return OverheadResult(
            scheme=scheme_key or "none",
            n_hosts=n_hosts,
            resolutions=resolutions,
            arp_frames=arp_frames,
            scheme_messages=scheme.messages_sent if scheme is not None else 0,
            total_wire_bytes=recorder.total_bytes(),
        )


# ======================================================================
# Figure 3 — resolution latency distribution
# ======================================================================
@dataclass(frozen=True)
class ResolutionLatencyResult(SerializableResult):
    scheme: str
    samples: Tuple[float, ...]

    @property
    def mean_latency(self) -> float:
        return mean(list(self.samples))

    @property
    def max_latency(self) -> float:
        return max(self.samples) if self.samples else 0.0


def _run_resolution_latency(
    scheme_key: Optional[str],
    n_resolutions: int = 50,
    seed: Optional[int] = None,
    config: Optional[ScenarioConfig] = None,
    **scheme_kwargs,
) -> ResolutionLatencyResult:
    """Measure ARP resolution latency under a scheme (cold cache each time)."""
    config = _quiet_config(config, seed, n_hosts=None, default_hosts=4)
    with Scenario(config) as scenario:
        host = scenario.users[0]
        target = scenario.users[1]
        host.resolution_latencies = []  # only the measured host records
        scheme = _make(scheme_key, **scheme_kwargs)
        scenario.install(scheme)
        scenario.sim.run(until=1.0)
        when = scenario.sim.now
        for _ in range(n_resolutions):
            when += 2.0

            def resolve_once(h=host, t=target) -> None:
                h.arp_cache.age_out(t.ip)  # force a fresh resolution
                h.resolve(t.ip, on_resolved=lambda mac: None)

            scenario.sim.schedule_at(when, resolve_once, name="latency-resolve")
        scenario.sim.run(until=when + 5.0)
        return ResolutionLatencyResult(
            scheme=scheme_key or "none",
            samples=tuple(host.resolution_latencies[-n_resolutions:]),
        )


# ======================================================================
# Figure 4 — interception ratio over time
# ======================================================================
@dataclass(frozen=True)
class InterceptionTimeline(SerializableResult):
    scheme: str
    bin_seconds: float
    bins: Tuple[Tuple[float, float], ...]  # (bin start, interception ratio)

    @property
    def peak_ratio(self) -> float:
        return max((r for _, r in self.bins), default=0.0)

    @property
    def mean_ratio(self) -> float:
        return mean([r for _, r in self.bins])


def _run_interception_timeline(
    scheme_key: Optional[str],
    config: Optional[ScenarioConfig] = None,
    duration: float = 120.0,
    attack_at: float = 30.0,
    ping_rate: float = 2.0,
    bin_seconds: float = 10.0,
    **scheme_kwargs,
) -> InterceptionTimeline:
    """Fraction of victim->gateway traffic the MITM relays, over time."""
    config = config or ScenarioConfig()
    with Scenario(config) as scenario:
        scheme = _make(scheme_key, **scheme_kwargs)
        scenario.install(scheme)
        scenario.warm_caches()
        start = scenario.sim.now
        # The bins' edges are known before the run, so each ping is
        # counted into its bin as it is sent: [edge, edge + bin_seconds).
        edges: List[float] = []
        edge = start
        while edge < start + duration:
            edges.append(edge)
            edge += bin_seconds
        sent = [0] * len(edges)

        def victim_ping() -> None:
            now = scenario.sim.now
            i = bisect_right(edges, now) - 1
            if i >= 0 and now < edges[i] + bin_seconds:
                sent[i] += 1
            scenario.victim.ping(scenario.gateway.ip)

        cancel = scenario.sim.call_every(1.0 / ping_rate, victim_ping, name="f4-traffic")
        mitm = MitmAttack(scenario.attacker, scenario.victim, scenario.gateway)
        scenario.sim.schedule_at(
            start + attack_at, partial(scenario.start, mitm), name="f4-attack"
        )
        scenario.sim.run(until=start + duration)
        if mitm.active:
            mitm.stop()
        cancel()

        bins: List[Tuple[float, float]] = []
        for edge, pings in zip(edges, sent):
            captured = len(
                [
                    p
                    for p in mitm.intercepted_between(edge, edge + bin_seconds)
                    if p.src == scenario.victim.ip
                ]
            )
            ratio = captured / pings if pings else 0.0
            bins.append((edge - start, min(1.0, ratio)))
        return InterceptionTimeline(
            scheme=scheme_key or "none", bin_seconds=bin_seconds, bins=tuple(bins)
        )


# ======================================================================
# Table 4 — resource footprint
# ======================================================================
@dataclass(frozen=True)
class FootprintResult(SerializableResult):
    scheme: str
    n_hosts: int
    state_entries: int
    scheme_messages: int
    switch_cam_entries: int


def _run_footprint(
    scheme_key: Optional[str],
    n_hosts: Optional[int] = None,
    settle: float = 30.0,
    seed: Optional[int] = None,
    config: Optional[ScenarioConfig] = None,
    **scheme_kwargs,
) -> FootprintResult:
    """How much state/chatter a scheme needs once the LAN is warm."""
    config = _quiet_config(config, seed, n_hosts, default_hosts=16)
    n_hosts = config.n_hosts
    with Scenario(config) as scenario:
        scheme = _make(scheme_key, **scheme_kwargs)
        scenario.install(scheme)
        traffic = BenignTraffic(scenario.lan, rate_per_host=0.5)
        scenario.start(traffic)
        scenario.sim.run(until=settle)
        traffic.stop()
        return FootprintResult(
            scheme=scheme_key or "none",
            n_hosts=n_hosts,
            state_entries=scheme.state_size() if scheme is not None else 0,
            scheme_messages=scheme.messages_sent if scheme is not None else 0,
            switch_cam_entries=len(scenario.lan.switch.cam),
        )


# ======================================================================
# SDN extension — controller failover under sustained poisoning
# ======================================================================
@dataclass(frozen=True)
class FailoverResult(SerializableResult):
    scheme: str
    fail_mode: str
    flap_windows: Tuple[Tuple[float, float], ...]
    guard_drops: int
    fallback_entered: bool
    recovered: bool
    poisoned_during_flap: float
    poisoned_outside_flap: float
    packet_ins: int
    flow_mods: int
    evictions: int

    @property
    def exposed(self) -> bool:
        """Did the control outage actually cost protection?"""
        return self.poisoned_during_flap > 0.0


#: Default controller outage when the config carries no fault spec.
DEFAULT_FAILOVER_FAULTS = "flap=ctrl@t10-20"


def _find_sdn_guard(scheme: Optional[Scheme]) -> Optional[SdnArpGuard]:
    """The ``SdnArpGuard`` inside ``scheme`` (bare or stacked), if any."""
    if isinstance(scheme, SdnArpGuard):
        return scheme
    if isinstance(scheme, SchemeStack):
        for member in scheme.schemes:
            if isinstance(member, SdnArpGuard):
                return member
    return None


def _run_controller_failover(
    scheme_key: str,
    fail_mode: str = "open",
    config: Optional[ScenarioConfig] = None,
    poison_interval: float = 0.5,
    **scheme_kwargs,
) -> FailoverResult:
    """Poison straight through a controller outage and measure the window.

    The MITM re-poisons every ``poison_interval`` seconds from shortly
    after boot until past the last flap window, so the result separates
    poisoning *during* the outage (the fail-open exposure) from
    poisoning while the controller was reachable.
    """
    if fail_mode not in ("open", "closed"):
        raise ExperimentError(
            f"fail_mode must be 'open' or 'closed', got {fail_mode!r}"
        )
    config = config or ScenarioConfig()
    if not config.fault_spec:
        config = replace(config, fault_spec=DEFAULT_FAILOVER_FAULTS)
    scheme = _make(scheme_key, **scheme_kwargs)
    guard = _find_sdn_guard(scheme)
    if guard is None:
        raise ExperimentError(
            "controller-failover requires 'sdn-arp-guard' in the scheme "
            f"spec, got {scheme_key!r}"
        )
    # Stack specs reject constructor kwargs, so the mode is applied to the
    # located guard directly — before install, where it reaches the agents.
    guard.fail_mode = fail_mode
    with Scenario(config) as scenario:
        scenario.install(scheme)
        # Warm briefly rather than warm_caches(): acceptance specs like
        # ``flap=ctrl@t3-5`` start early and a 5 s warmup would swallow them.
        scenario.victim.ping(scenario.gateway.ip)
        scenario.sim.run(until=1.0)

        flaps = parse_fault_spec(config.fault_spec).flaps
        last_end = max((f.end for f in flaps), default=0.0)
        attack_start = scenario.sim.now
        # One window per flap, then the whole attack, left open to the end.
        watch = PoisonTracker(
            scenario.victim, scenario.gateway.ip, scenario.gateway.mac,
            windows=[(f.start, f.end) for f in flaps] + [(attack_start, None)],
        )
        mitm = MitmAttack(
            scenario.attacker,
            scenario.victim,
            scenario.gateway,
            technique="reply",
            interval=poison_interval,
        )
        scenario.start(mitm)
        cancel = scenario.sim.call_every(
            0.5, lambda: scenario.victim.ping(scenario.gateway.ip), name="victim-traffic"
        )
        run_until = max(last_end + config.cooldown, attack_start + config.attack_duration)
        scenario.sim.run(until=run_until)
        mitm.stop()
        cancel()
        scenario.sim.run(until=scenario.sim.now + config.cooldown)

        *in_flaps, total = poisoned_seconds(watch, scenario.sim.now)
        during = sum(in_flaps)
        controller = guard.controller
        return FailoverResult(
            scheme=scheme_key,
            fail_mode=fail_mode,
            flap_windows=tuple((f.start, f.end) for f in flaps),
            guard_drops=guard.arp_drops,
            fallback_entered=any(a.fallbacks > 0 for a in guard._agents),
            recovered=any(a.recoveries > 0 for a in guard._agents),
            poisoned_during_flap=during,
            poisoned_outside_flap=max(0.0, total - during),
            packet_ins=controller.packet_ins_received if controller else 0,
            flow_mods=controller.flow_mods_sent if controller else 0,
            evictions=sum(a.table.evictions for a in guard._agents),
        )


# ======================================================================
# Supporting attack — DHCP pool starvation under a defense
# ======================================================================
@dataclass(frozen=True)
class StarvationResult(SerializableResult):
    scheme: str
    duration: float
    leases_captured: int
    pool_free: int
    pool_size: int
    exhausted: bool

    @property
    def pool_survival_ratio(self) -> float:
        return self.pool_free / self.pool_size if self.pool_size else 0.0


def _run_dhcp_starvation(
    scheme_key: Optional[str],
    duration: float = 30.0,
    rate_per_second: float = 30.0,
    greedy: bool = True,
    config: Optional[ScenarioConfig] = None,
    **scheme_kwargs,
) -> StarvationResult:
    """Yersinia-style DORA flood against the standard testbed's pool."""
    config = config or ScenarioConfig(with_dhcp=True)
    if not config.with_dhcp:
        config = ScenarioConfig(**{**config.__dict__, "with_dhcp": True})
    with Scenario(config) as scenario:
        scheme = _make(scheme_key, **scheme_kwargs)
        scenario.install(scheme)
        server = scenario.lan.dhcp_server
        attack = DhcpStarvation(
            scenario.attacker, rate_per_second=rate_per_second, greedy=greedy
        )
        start = scenario.sim.now
        scenario.start(attack)
        scenario.sim.run(until=start + duration)
        attack.stop()
        return StarvationResult(
            scheme=scheme_key or "none",
            duration=duration,
            leases_captured=attack.leases_captured,
            pool_free=server.free_addresses,
            pool_size=len(server.pool),
            exhausted=server.is_exhausted,
        )


# ======================================================================
# Serialization registry (cross-process transfer + result cache)
# ======================================================================
#: Result classes by their ``kind`` tag, for polymorphic deserialization.
RESULT_TYPES: Dict[str, type] = {
    cls.__name__: cls
    for cls in (
        EffectivenessResult,
        FalsePositiveResult,
        LatencyResult,
        OverheadResult,
        ResolutionLatencyResult,
        InterceptionTimeline,
        FootprintResult,
        FailoverResult,
        StarvationResult,
    )
}


def result_from_dict(data: Mapping[str, object]) -> SerializableResult:
    """Rebuild whichever result type ``data`` was serialized from."""
    kind = data.get("kind")
    try:
        cls = RESULT_TYPES[kind]
    except KeyError:
        raise ExperimentError(
            f"unknown result kind {kind!r}; known: {sorted(RESULT_TYPES)}"
        ) from None
    return cls.from_dict(data)
