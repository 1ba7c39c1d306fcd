"""Campus-scale experiments: ARP churn on spine-leaf topologies.

The paper's monitor schemes were evaluated on one small LAN; the scale
question — does arpwatch-style monitoring survive *campus* aggregate ARP
churn? — needs the :class:`~repro.l2.topology.Campus` topology and (for
10k+ hosts) the partitioned engine in :mod:`repro.sim.partition`.  This
module is the experiment front-end: ``api.run("campus-churn", ...)`` and
the matching campaign kind both land here.

Sharding modes (the ``shards`` parameter):

* ``0`` — single :class:`~repro.sim.Simulator`, one global event loop
  (the reference semantics; everything else must match it bit-for-bit);
* ``1`` — :class:`~repro.sim.ShardedSimulator`, in-process
  conservative-lookahead windows (one partition per building + spine);
* ``>= 2`` — partitions sharded across that many fork workers via
  :meth:`~repro.sim.ShardedSimulator.run_sharded`, metrics merged back
  through the ``repro.obs`` registry delta machinery.

Workload determinism: talker hosts are picked by a fixed stride over the
(position-named) host list, every talker draws peers and send times from
its *own* ``campus/talk/{host}`` RNG stream, and all sends are scheduled
before the clock starts — so the traffic is a pure function of (seed,
topology), identical under every sharding mode.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from typing import Optional

from repro.core.experiment import (
    RESULT_TYPES,
    ScenarioConfig,
    SerializableResult,
)
from repro.errors import ExperimentError
from repro.l2.topology import Campus
from repro.obs.registry import REGISTRY, alerts_in
from repro.schemes import make_defense
from repro.sim import ShardedSimulator, Simulator

__all__ = ["CampusScaleResult", "_run_campus_churn"]


@dataclass(frozen=True)
class CampusScaleResult(SerializableResult):
    """One campus churn cell: topology shape, throughput, detection load."""

    scheme: str
    hosts: int
    partitions: int
    shards: int
    talkers: int
    sim_seconds: float
    #: Events executed across every partition (merged for fork shards).
    events: int
    #: Frames handed to sinks by the batched data plane (merged).
    deliveries: int
    wall_seconds: float
    build_seconds: float
    alerts: int

    @property
    def deliveries_per_sec(self) -> float:
        """Aggregate batched-plane delivery throughput (the gate metric)."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.deliveries / self.wall_seconds

    @property
    def events_per_sec(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.events / self.wall_seconds

    @property
    def hosts_per_build_sec(self) -> float:
        """Topology construction rate — the O(n) build regression metric."""
        if self.build_seconds <= 0:
            return 0.0
        return self.hosts / self.build_seconds


#: Send times stay inside [WARMUP, duration - TAIL] so every ARP exchange
#: a talker starts can complete before the horizon.
_WARMUP = 0.05
_TAIL = 0.2


def _run_campus_churn(
    scheme_key: Optional[str],
    config: Optional[ScenarioConfig] = None,
    buildings: int = 4,
    leaves_per_building: int = 2,
    hosts_per_leaf: int = 24,
    talkers: Optional[int] = None,
    duration: float = 2.0,
    shards: int = 0,
    **scheme_kwargs,
) -> CampusScaleResult:
    """Benign ARP churn across a spine-leaf campus, optionally sharded."""
    if duration <= _WARMUP + _TAIL:
        raise ExperimentError(
            f"duration must exceed {_WARMUP + _TAIL}s (warmup + drain tail)"
        )
    if shards < 0:
        raise ExperimentError(f"shards must be >= 0, got {shards}")
    seed = (config or ScenarioConfig()).seed

    scheme = None
    if scheme_key is not None:
        scheme = make_defense(scheme_key, **scheme_kwargs)
        if scheme.profile.placement != "monitor":
            raise ExperimentError(
                f"campus-churn only supports monitor-placement schemes "
                f"(a campus has no per-host agents yet); "
                f"{scheme_key!r} is {scheme.profile.placement!r}-placed"
            )

    obs_before = REGISTRY.snapshot()

    build_start = time.perf_counter()
    if shards > 0:
        fabric = ShardedSimulator(seed=seed)
    else:
        fabric = Simulator(seed=seed)
    campus = Campus(
        fabric,
        buildings=buildings,
        leaves_per_building=leaves_per_building,
        hosts_per_leaf=hosts_per_leaf,
    )
    # A finished fabric is tens of thousands of objects in reference
    # cycles, which only a full collection would free, and the batched
    # plane allocates too little to trigger one often.  Releasing it
    # when the run ends, also when it raises, frees it by reference
    # counting as soon as the last outside reference goes, before the
    # next run builds its own.
    try:
        if scheme is not None:
            campus.add_monitor()
            scheme.install(campus)
        build_seconds = time.perf_counter() - build_start

        # ------------------------------------------------------------------
        # Deterministic churn workload, fully scheduled before the run
        # ------------------------------------------------------------------
        stations = [
            h for h in campus.hosts.values() if h is not campus.monitor
        ]
        n_stations = len(stations)
        if talkers is None:
            talkers = max(2, n_stations // 8)
        talkers = min(talkers, n_stations)
        stride = max(1, n_stations // talkers)
        window = duration - _WARMUP - _TAIL
        pings_each = 6
        for host in stations[:: stride][:talkers]:
            rng = host.sim.rng_stream(f"campus/talk/{host.name}")
            for _ in range(pings_each):
                peer = stations[rng.randrange(n_stations)]
                if peer is host:
                    continue
                when = _WARMUP + rng.random() * window
                host.sim.schedule_at(
                    when, partial(host.ping, peer.ip), name="campus.talk"
                )

        run_start = time.perf_counter()
        if shards >= 2:
            summary = fabric.run_sharded(until=duration, jobs=shards)
            shards_used = int(summary["shards"])
        else:
            fabric.run(until=duration)
            shards_used = 1 if shards else 0
        wall_seconds = time.perf_counter() - run_start

        obs_delta = REGISTRY.delta(obs_before)
        perf_delta = obs_delta["collectors"].get("perf", {})
        return CampusScaleResult(
            scheme=scheme_key or "none",
            hosts=len(campus.hosts),
            partitions=len(fabric.partitions) if shards > 0 else 1,
            shards=shards_used,
            talkers=talkers,
            sim_seconds=duration,
            events=fabric.events_processed,
            deliveries=int(perf_delta.get("batched_items", 0)),
            wall_seconds=wall_seconds,
            build_seconds=build_seconds,
            alerts=alerts_in(obs_delta),
        )
    finally:
        if scheme is not None:
            scheme.uninstall()
        campus.release()


# Polymorphic deserialization (campaign transport + result cache) — the
# registry lives in experiment.py but registering here avoids a cycle.
RESULT_TYPES[CampusScaleResult.__name__] = CampusScaleResult
