"""The replay engine: pump a frame source through the monitor RX path.

This is the deployment half of the paper's framing — the schemes are
"things you point at live traffic", so :class:`ReplayEngine` stands up
the same station a passive IDS deployment uses (a promiscuous monitor
host with schemes attached to its frame taps) and drives it from any
:class:`~repro.replay.sources.FrameSource` instead of a simulated
switch mirror port.

One delivery loop: the source hands over one
:class:`~repro.analysis.pcap.FrameWindow` per bounded in-flight window
(:meth:`FrameSource.windows`), and each kept frame goes through
``Port.deliver_batch`` → ``Host.on_frame_batch`` → ``Host.on_frame``
as a batch of one, at its own trace timestamp, clamped to the stream's
running maximum.  The source runs arpwatch's capture filter (``arp or
udp port 67 or 68``) while it builds the window — a pcap source inside
its record walk — so the benign majority never reaches the engine.
The filter is off when a per-frame ``observer`` is attached, when
``TRACER`` is enabled (so frame provenance ids number every capture
position), and when an installed scheme overrides ``on_any_frame`` and
therefore inspects non-ARP/DHCP traffic.

The source is consumed *pull-based* behind the window, so a multi-GB
trace replays in O(window) memory — ``peak_in_flight`` records the
high-water mark and the bounded-memory test pins it to the window.

Timekeeping: the engine drives the simulation clock from trace
timestamps via :meth:`~repro.sim.Simulator.advance_to`, so scheme
timers (probe timeouts, periodic sweeps) fire in step with the stream.
"""

from __future__ import annotations

import time
from contextlib import closing
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Union

from repro.core.experiment import (
    RESULT_TYPES,
    ScenarioConfig,
    SerializableResult,
)
from repro.errors import ReplayError, SchemeError
from repro.l2.topology import _release
from repro.net.addresses import Ipv4Address, MacAddress
from repro.obs.registry import REGISTRY, alerts_in
from repro.obs.trace import TRACER
from repro.replay.sources import FrameSource, open_source
from repro.schemes.active_probe import ActiveProbe
from repro.schemes.base import Scheme
from repro.schemes.monitor_base import MonitorScheme
from repro.sim import Simulator
from repro.stack.host import Host

__all__ = [
    "ReplayEngine",
    "ReplayLan",
    "ReplayResult",
    "REPLAY_MONITOR_MAC",
    "_run_replay",
]

#: The replay station's MAC: locally administered, outside both the
#: realistic-OUI range simulated LANs allocate and the synthetic
#: source's ``aa:``/``ae:`` station ranges — a monitor scheme's
#: own-transmission filter must never match a trace frame.
REPLAY_MONITOR_MAC = MacAddress("02:52:45:50:4c:59")

#: Default bounded in-flight window (frames).
DEFAULT_WINDOW = 1024


class _ObserverHost(Host):
    """A sniffer station: taps see everything, the stack stays out.

    A passive capture box does not run an ARP/IP stack over the traffic
    it records — the live monitor host does (its broadcast handling is
    part of the simulated LAN), but in replay that stack work would
    double-decode every ARP frame for no observable effect.  Frames
    addressed to the station itself (replies to its own active probes)
    still reach the stack, so probe bookkeeping works if a trace ever
    contains them.
    """

    _stack_takes_group = False


class ReplayLan:
    """The minimal LAN surface a monitor-placed scheme installs onto.

    Duck-types what :class:`~repro.l2.topology.Lan` exposes to
    :class:`~repro.schemes.monitor_base.MonitorScheme` (``sim``,
    ``hosts``, ``monitor``, ``true_bindings``) — the same trick
    :class:`~repro.l2.topology.Campus` uses — but with no switch fabric:
    frames arrive from a trace, not a mirror link.  ``inventory`` seeds
    ``true_bindings()`` for schemes that bootstrap from a static
    IP→MAC inventory (snort-style preconfiguration); learning schemes
    ignore it.
    """

    def __init__(
        self,
        sim: Simulator,
        inventory: Optional[Mapping[Ipv4Address, MacAddress]] = None,
    ) -> None:
        self.sim = sim
        self.hosts: Dict[str, Host] = {}
        self.monitor: Host = _ObserverHost(
            sim, "replay-monitor", mac=REPLAY_MONITOR_MAC
        )
        self.monitor.promiscuous = True
        # The station is an observer, not a participant: it must never
        # answer ARP or ICMP out of the trace it is replaying.
        self.monitor.arp_responder_enabled = False
        self.monitor.icmp_echo_enabled = False
        self.hosts[self.monitor.name] = self.monitor
        self._inventory: Dict[Ipv4Address, MacAddress] = dict(inventory or {})

    def true_bindings(self) -> Dict[Ipv4Address, MacAddress]:
        """The configured inventory (empty when replaying unknown traffic)."""
        return dict(self._inventory)

    def __repr__(self) -> str:
        return f"ReplayLan(monitor={self.monitor.name}, inventory={len(self._inventory)})"


@dataclass(frozen=True)
class ReplayResult(SerializableResult):
    """One replay run: stream size, throughput, and detection outcome."""

    source: str
    scheme: str
    frames: int
    bytes: int
    #: Frames handed to the host RX path (after the capture filter;
    #: equals ``frames`` when the filter is off).
    delivered: int
    alerts: int
    #: Trace time span covered (last timestamp - first timestamp).
    sim_seconds: float
    wall_seconds: float
    window: int
    #: In-flight high-water mark; bounded-memory invariant: <= window.
    peak_in_flight: int

    @property
    def frames_per_sec(self) -> float:
        """Sustained ingest throughput (the ``replay_*`` bench-gate metric)."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.frames / self.wall_seconds


def _leaves(scheme: Scheme) -> List[Scheme]:
    """A stack's members, or the scheme itself."""
    return getattr(scheme, "schemes", None) or [scheme]


def _overrides_on_any_frame(scheme: Scheme) -> bool:
    """Does any installed (leaf) scheme inspect every frame?"""
    return any(
        isinstance(leaf, MonitorScheme)
        and type(leaf).on_any_frame is not MonitorScheme.on_any_frame
        for leaf in _leaves(scheme)
    )


class ReplayEngine:
    """Pump a :class:`FrameSource` through the monitor RX path.

    Construct, optionally :meth:`install` schemes, then :meth:`run` any
    number of sources.  The engine owns a :class:`ReplayLan`; the
    simulator may be shared (pass your own to attach telemetry first).
    Free it with ``with ReplayEngine(...) as engine:`` or
    :meth:`release`, which also drops the given simulator's queue.
    """

    def __init__(
        self,
        sim: Optional[Simulator] = None,
        *,
        window: int = DEFAULT_WINDOW,
        inventory: Optional[Mapping[Ipv4Address, MacAddress]] = None,
        observer: Optional[Callable[[float, bytes], None]] = None,
    ) -> None:
        if window < 1:
            raise ReplayError(f"window must be >= 1, got {window}")
        self.sim = sim if sim is not None else Simulator(seed=7)
        self.window = window
        self.observer = observer
        self.lan = ReplayLan(self.sim, inventory=inventory)
        self.schemes: List[Scheme] = []
        self.peak_in_flight = 0
        self._frames_total = REGISTRY.counter(
            "replay_frames_total",
            "Frames ingested by the replay engine, by source kind",
            labels=("source",),
        )
        self._bytes_total = REGISTRY.counter(
            "replay_bytes_total",
            "Bytes ingested by the replay engine, by source kind",
            labels=("source",),
        )
        self._skew_total = REGISTRY.counter(
            "replay_skew_total",
            "Trace frames whose timestamp ran backwards (clamped to the clock)",
        )
        self._ingest_seconds = REGISTRY.histogram(
            "replay_ingest_seconds",
            "Wall-clock time spent ingesting one in-flight window",
        )

    # ------------------------------------------------------------------
    def install(self, scheme: Scheme) -> Scheme:
        """Install a scheme onto the replay station.

        Only monitor-placed schemes make sense here (there is no switch
        fabric or host population to protect), and of those not
        ``active-probe``, whose only verdict path is a probe that a
        capture cannot answer; anything else fails with
        :class:`~repro.errors.SchemeError` before touching the LAN.
        """
        placement = scheme.profile.placement
        if placement != "monitor":
            raise SchemeError(
                f"replay only supports monitor-placement schemes "
                f"(a trace has no switch fabric or protected hosts); "
                f"{scheme.profile.key!r} is {placement!r}-placed"
            )
        if any(isinstance(leaf, ActiveProbe) for leaf in _leaves(scheme)):
            raise SchemeError(
                "replay cannot run 'active-probe': its only verdict is a "
                "probe of the previous owner, which a capture cannot answer"
            )
        scheme.install(self.lan)
        self.schemes.append(scheme)
        return scheme

    def uninstall_all(self) -> None:
        for scheme in self.schemes:
            scheme.uninstall()
        self.schemes.clear()

    def __enter__(self) -> "ReplayEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()

    def release(self) -> None:
        """Free the station by reference counting, with no collection.

        Uninstalls every scheme, then releases the monitor host and the
        simulator (:func:`repro.l2.topology._release`): the simulator's
        queued events are dropped, so a shared simulator cannot carry on
        after this.  Scheme alerts and databases, host counters and run
        statistics stay readable on any object a caller still holds.
        ``with ReplayEngine(...) as engine:`` calls it on exit, also when
        a run raises.  Idempotent.
        """
        self.uninstall_all()
        _release(self.sim, (self.lan.monitor,))

    # ------------------------------------------------------------------
    def run(
        self,
        source: Union[str, Mapping[str, object], FrameSource],
        *,
        drain: float = 0.0,
    ) -> Dict[str, object]:
        """Replay ``source`` to completion; returns run statistics.

        ``drain`` runs the simulator that many extra trace-seconds past
        the last frame, so scheme timers (probe timeouts) conclude.
        Returns a dict with ``frames``, ``bytes``, ``delivered``,
        ``skew``, ``first_ts``/``last_ts``, ``wall_seconds`` and
        ``peak_in_flight``.
        """
        src = open_source(source)
        observer = self.observer
        filtered = not (
            observer is not None
            or TRACER.enabled
            or any(map(_overrides_on_any_frame, self.schemes))
        )
        provenance = TRACER.provenance if TRACER.enabled else None
        origin = f"replay:{src.kind}"
        deliver = self.lan.monitor.nic.deliver_batch
        sim = self.sim
        frames = nbytes = delivered = skew = peak = 0
        first_ts: Optional[float] = None
        now = last_ts = sim.now
        telemetry = sim.telemetry
        observe = self._ingest_seconds.observe
        advance_to = sim.advance_to
        start = window_start = time.perf_counter()
        with closing(src.windows(self.window, last_ts, filtered)) as windows:
            for win in windows:
                n = win.frames
                if n > peak:
                    peak = n
                if first_ts is None:
                    first_ts = win.first_ts
                for ts, raw in win.kept:
                    if ts > now:
                        advance_to(ts)
                        now = ts
                    if provenance is not None:
                        provenance.new_frame(raw, origin=origin, time=ts, kind="rx")
                    if observer is not None:
                        observer(ts, raw)
                    deliver((raw,))
                frames += n
                nbytes += win.bytes
                delivered += len(win.kept)
                skew += win.skew
                last_ts = win.max_ts
                now_wall = time.perf_counter()
                observe(now_wall - window_start)
                window_start = now_wall
                if telemetry is not None:
                    sim.events_processed += n
                    telemetry.tick(sim)
        if last_ts > sim.now:
            sim.advance_to(last_ts)
        if drain > 0.0:
            sim.run(until=sim.now + drain)
        wall_seconds = time.perf_counter() - start
        src.close()
        self.peak_in_flight = max(self.peak_in_flight, peak)
        if frames:
            self._frames_total.labels(source=src.kind).inc(frames)
            self._bytes_total.labels(source=src.kind).inc(nbytes)
        if skew:
            self._skew_total.inc(skew)
        if telemetry is not None:
            telemetry.sample(sim, reason="replay-end")
        return {
            "source": src.spec_string,
            "frames": frames,
            "bytes": nbytes,
            "delivered": delivered,
            "skew": skew,
            "first_ts": first_ts,
            "last_ts": last_ts,
            "wall_seconds": wall_seconds,
            "peak_in_flight": peak,
        }


def _run_replay(
    scheme_key: Optional[str],
    config: Optional[ScenarioConfig] = None,
    source: Union[str, Mapping[str, object], FrameSource, None] = None,
    window: int = DEFAULT_WINDOW,
    drain: float = 0.0,
    **scheme_kwargs,
) -> ReplayResult:
    """``api.run("replay", ...)`` entry point."""
    if source is None:
        raise ReplayError(
            "replay needs a source= (spec string like 'pcap:PATH' or "
            "'synthetic:rate=50k', or a FrameSource)"
        )
    from repro.schemes import make_defense

    seed = (config or ScenarioConfig()).seed
    src = open_source(source)
    obs_before = REGISTRY.snapshot()
    with ReplayEngine(Simulator(seed=seed), window=window) as engine:
        if scheme_key is not None:
            engine.install(make_defense(scheme_key, **scheme_kwargs))
        stats = engine.run(src, drain=drain)
        first_ts = stats["first_ts"]
        span = (stats["last_ts"] - first_ts) if first_ts is not None else 0.0
        return ReplayResult(
            source=str(stats["source"]),
            scheme=scheme_key or "none",
            frames=int(stats["frames"]),
            bytes=int(stats["bytes"]),
            delivered=int(stats["delivered"]),
            alerts=alerts_in(REGISTRY.delta(obs_before)),
            sim_seconds=float(span),
            wall_seconds=float(stats["wall_seconds"]),
            window=window,
            peak_in_flight=int(stats["peak_in_flight"]),
        )


# Polymorphic deserialization (campaign transport + result cache).
RESULT_TYPES[ReplayResult.__name__] = ReplayResult
