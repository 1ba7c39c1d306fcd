"""The four benchmark workloads and the probe that times them.

Each workload is a closed loop of *cells*: one cell is one call into the
program (one ``api.run``, or for ``defended-lan`` one build-and-run of
the standard scenario), issued as soon as the previous one returns.
Every cell yields a digest of its simulated-time outputs; digests are
compared for exact equality and never timed.  All time figures are host
wall-clock seconds.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional

from repro.analysis.pcap import PcapWriter
from repro.attacks.mitm import MitmAttack
from repro.core import api, report
from repro.core.experiment import Scenario, ScenarioConfig
from repro.l2 import device
from repro.obs.trace import TRACER
from repro.replay.sources import SyntheticSource
from repro.schemes import make_defense
from repro.sim import partition, simulator
from repro.workloads.benign import BenignTraffic


def digest(payload) -> str:
    """A short stable hash of a JSON-able payload."""
    text = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ======================================================================
# The probe: per-cell timing from outside the program
# ======================================================================
class Probe:
    """Light patches that stay on in untraced runs too.

    They run once per cell or once per constructed port, never per
    frame: ``api.run`` is timed per call, ``ShardedSimulator.run`` per
    call (the campus timed region), and every ``Port`` built is kept so
    a cell can count the frames its topology received.
    """

    def __init__(self) -> None:
        self.calls: List[tuple] = []  # (args, kwargs, start, seconds) per api.run
        self.run_seconds: List[float] = []
        self.ports: List[device.Port] = []
        self.frames = 0
        self._patches: List[tuple] = []
        self.original_run = api.run
        #: Host-speed gauge read between ``api.run`` calls (untraced runs).
        self.gauge = None

    def install(self) -> None:
        probe = self
        original_run = api.run
        original_sharded = partition.ShardedSimulator.run
        original_port_init = device.Port.__init__

        def timed_api_run(*args, **kwargs):
            if probe.gauge is not None:
                probe.gauge.maybe_read()
            t0 = time.perf_counter()
            result = original_run(*args, **kwargs)
            probe.calls.append((args, kwargs, t0, time.perf_counter() - t0))
            probe._count_ports()  # let the cell's topology be freed
            return result

        def timed_sharded_run(self, *args, **kwargs):
            t0 = time.perf_counter()
            try:
                return original_sharded(self, *args, **kwargs)
            finally:
                probe.run_seconds.append(time.perf_counter() - t0)

        def kept_port_init(self, *args, **kwargs):
            original_port_init(self, *args, **kwargs)
            probe.ports.append(self)

        for owner, attr, value in (
            (api, "run", timed_api_run),
            (partition.ShardedSimulator, "run", timed_sharded_run),
            (device.Port, "__init__", kept_port_init),
        ):
            self._patches.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, value)

    def restore(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def _count_ports(self) -> None:
        self.frames += sum(p.rx_frames for p in self.ports)
        self.ports = []

    def take_frames(self) -> int:
        """Frames received by every port built since the last call."""
        self._count_ports()
        frames, self.frames = self.frames, 0
        return frames


@dataclass
class Cell:
    """One call into the program, as the benchmark saw it."""

    #: ``time.perf_counter()`` when the cell began.
    start: float
    wall_s: float
    #: Host time of the timed region inside the cell (the event loop or
    #: the replay); ``None`` when the whole cell is the timed region.
    timed_s: Optional[float]
    frames: int
    digest: str
    #: Zero-argument callable repeating the cell (for the untraced
    #: re-run that calibrates tracing overhead).
    again: Optional[Callable[[], object]] = None


@dataclass
class Pass:
    """One full production of a workload's checked outputs."""

    #: ``time.perf_counter()`` when the pass began and ended.  ``wall_s``
    #: can be shorter than ``end - start``: it leaves out gauge rounds.
    start: float
    end: float
    wall_s: float
    frames: int
    cells: List[Cell] = field(default_factory=list)
    #: Checked output name -> digest (several per pass for ``paper``).
    outputs: Dict[str, str] = field(default_factory=dict)

    @property
    def timed_s(self) -> float:
        timed = [c.timed_s for c in self.cells if c.timed_s is not None]
        return sum(timed) if timed else self.wall_s

    @classmethod
    def of_cell(cls, cell: Cell) -> "Pass":
        return cls(start=cell.start, end=cell.start + cell.wall_s, wall_s=cell.wall_s,
                   frames=cell.frames, cells=[cell], outputs={"cell": cell.digest})


# ======================================================================
# Sizes
# ======================================================================
T3_SCHEMES = (
    "static-arp", "anticap", "antidote", "s-arp", "tarp", "port-security",
    "dai", "arpwatch", "snort-arpspoof", "active-probe", "middleware", "hybrid",
)
T4_SCHEMES = ("static-arp", "s-arp", "tarp", "dai", "arpwatch", "hybrid", "middleware")
DETECTORS = ("arpwatch", "snort-arpspoof", "active-probe", "middleware", "hybrid")

SIZES = {
    "full": {
        "paper": dict(
            t3_schemes=T3_SCHEMES, t3_duration=900.0,
            t4_schemes=T4_SCHEMES, host_counts=(8, 16, 32),
            f1_rates=(0.2, 0.5, 1.0, 2.0, 5.0), f1_schemes=DETECTORS,
            f2_schemes=(None, "s-arp", "tarp", "active-probe"),
            f3_resolutions=20,
            f4_schemes=(None, "anticap", "dai", "s-arp", "hybrid"), f4_duration=90.0,
            t2_schemes=None,
        ),
        "campus": dict(buildings=4, leaves_per_building=5, hosts_per_leaf=50,
                       talkers=4, duration=0.5),
        "defended-lan": dict(n_hosts=48, rate=20.0, duration=5.0, provenance_duration=2.0),
        "replay": dict(frames=2_000_000, rate=200_000),
    },
    "tiny": {
        "paper": dict(
            t3_schemes=("arpwatch",), t3_duration=60.0,
            t4_schemes=("dai",), host_counts=(8,),
            f1_rates=(1.0,), f1_schemes=("arpwatch",),
            f2_schemes=(None, "s-arp"),
            f3_resolutions=5,
            f4_schemes=(None, "dai"), f4_duration=40.0,
            t2_schemes=("dai", "arpwatch"),
        ),
        "campus": dict(buildings=2, leaves_per_building=2, hosts_per_leaf=8,
                       talkers=2, duration=0.4),
        "defended-lan": dict(n_hosts=8, rate=5.0, duration=2.0, provenance_duration=1.0),
        "replay": dict(frames=20_000, rate=200_000),
    },
}


# ======================================================================
# Workloads
# ======================================================================
class Workload:
    """Base: ``setup`` once per process, then ``run_pass`` in a loop."""

    name = ""
    seed_independent = False

    def __init__(self, seed: int, size: str, probe: Probe, workdir: str) -> None:
        self.seed = seed
        self.size = SIZES[size][self.name]
        self.probe = probe
        self.workdir = workdir

    def setup(self) -> float:
        """Process-level set-up beyond imports; returns its seconds."""
        return 0.0

    def run_pass(self, tracer=None) -> Pass:
        raise NotImplementedError

    def reference(self) -> Dict[str, str]:
        """Output digests computed through an independent program path,
        for seeds that have no committed digest."""
        raise NotImplementedError

    def extra_checks(self) -> Dict[str, str]:
        """Checked outputs produced once per run, outside the timed loop."""
        return {}

    def cleanup(self) -> None:
        pass


@contextmanager
def _paused(tracer):
    """Tracing off while the benchmark itself inspects program state."""
    if tracer is None:
        yield
        return
    was, tracer.active = tracer.active, False
    try:
        yield
    finally:
        tracer.active = was


class Paper(Workload):
    """T1-T4 and F1-F4 regenerated serially through ``repro.core.report``."""

    name = "paper"
    #: Only Table 2's scenarios take the seed, and its verdict rows do not
    #: change with it, so one committed digest set serves every seed.
    seed_independent = True

    def artifacts(self):
        s = self.size
        t2_config = ScenarioConfig(
            seed=self.seed, n_hosts=4, warmup=3.0, attack_duration=20.0, cooldown=2.0
        )
        return [
            ("T1", report.table_1_criteria, {}),
            ("T2", report.table_2_effectiveness,
             {"config": t2_config, "schemes": s["t2_schemes"]}),
            ("T3", report.table_3_false_positives,
             {"schemes": s["t3_schemes"], "duration": s["t3_duration"]}),
            ("T4", report.table_4_footprint,
             {"schemes": s["t4_schemes"], "host_counts": s["host_counts"]}),
            ("F1", report.figure_1_detection_latency,
             {"rates": s["f1_rates"], "schemes": s["f1_schemes"]}),
            ("F2", report.figure_2_overhead,
             {"host_counts": s["host_counts"], "schemes": s["f2_schemes"]}),
            ("F3", report.figure_3_resolution_latency,
             {"n_resolutions": s["f3_resolutions"]}),
            ("F4", report.figure_4_interception,
             {"schemes": s["f4_schemes"], "duration": s["f4_duration"], "attack_at": 30.0}),
        ]

    def run_pass(self, tracer=None) -> Pass:
        probe = self.probe
        probe.take_frames()
        first_call = len(probe.calls)
        outputs: Dict[str, str] = {}
        wall = 0.0
        start = time.perf_counter()
        for artifact_id, fn, kwargs in self.artifacts():
            spent = probe.gauge.spent if probe.gauge is not None else 0.0
            t0 = time.perf_counter()
            artifact = fn(**kwargs)
            wall += time.perf_counter() - t0
            if probe.gauge is not None:
                wall -= probe.gauge.spent - spent
            with _paused(tracer):
                outputs[artifact_id] = digest(
                    [list(map(str, artifact.header)),
                     [list(map(str, row)) for row in artifact.rows]]
                )
        calls = probe.calls[first_call:]
        cells = [
            Cell(start=t0, wall_s=seconds, timed_s=None, frames=0, digest="",
                 again=partial(probe.original_run, *args, **kwargs))
            for args, kwargs, t0, seconds in calls
        ]
        return Pass(start=start, end=time.perf_counter(), wall_s=wall,
                    frames=probe.take_frames(), cells=cells, outputs=outputs)

    def reference(self) -> Dict[str, str]:
        # The artifacts have no second program path to compare with; the
        # committed digests are the only reference.
        return {}


class Campus(Workload):
    """``api.run("campus-churn", shards=1)``: no scheme, >= 1k hosts."""

    name = "campus"

    def _cell(self, shards: int = 1, tracer=None) -> Cell:
        probe = self.probe
        probe.take_frames()
        runs = len(probe.run_seconds)
        t0 = time.perf_counter()
        result = api.run(
            "campus-churn", config=ScenarioConfig(seed=self.seed), shards=shards,
            **self.size,
        )
        wall = time.perf_counter() - t0
        with _paused(tracer):
            frames = probe.take_frames()
            out = digest({
                "hosts": result.hosts,
                "talkers": result.talkers,
                "events": result.events,
                "deliveries": result.deliveries,
                "alerts": result.alerts,
                "frames": frames,
            })
        return Cell(
            start=t0, wall_s=wall, timed_s=sum(probe.run_seconds[runs:]) if shards else None,
            frames=frames, digest=out, again=self._cell,
        )

    def run_pass(self, tracer=None) -> Pass:
        return Pass.of_cell(self._cell(1, tracer))

    def reference(self) -> Dict[str, str]:
        # The single event loop is the reference every sharded run must
        # match exactly.
        return {"cell": self._cell(0).digest}


class DefendedLan(Workload):
    """The standard scenario, ``dai+arpwatch``, MITM plus benign load."""

    name = "defended-lan"
    FAULTS = "loss=0.01,jitter=1ms"
    SCHEME = "dai+arpwatch"

    def _build(self):
        s = self.size
        scenario = Scenario(
            ScenarioConfig(seed=self.seed, n_hosts=s["n_hosts"], fault_spec=self.FAULTS)
        )
        scheme = make_defense(self.SCHEME)
        scenario.install(scheme)
        traffic = BenignTraffic(scenario.lan, rate_per_host=s["rate"])
        mitm = MitmAttack(
            scenario.attacker, scenario.victim, scenario.gateway,
            technique="reply", interval=0.5,
        )
        traffic.start()
        mitm.start()
        return scenario, scheme

    def _outputs(self, scenario, scheme, frames: int) -> str:
        alerts = [
            (repr(a.time), a.scheme, a.severity, a.kind, str(a.ip), str(a.mac), a.frame_id)
            for leaf in scheme.schemes
            for a in leaf.alerts
        ]
        caches = {
            name: sorted((str(e.ip), str(e.mac), e.source, e.static) for e in host.arp_cache)
            for name, host in scenario.lan.hosts.items()
        }
        cams = {
            name: sorted((str(e.mac), e.port_index) for e in switch.cam)
            for name, switch in scenario.lan.switches.items()
        }
        return digest({"alerts": alerts, "caches": caches, "cams": cams, "frames": frames})

    def _cell(self, tracer=None, duration: Optional[float] = None) -> Cell:
        probe = self.probe
        probe.take_frames()
        t0 = time.perf_counter()
        scenario, scheme = self._build()
        t1 = time.perf_counter()
        scenario.sim.run(until=duration if duration is not None else self.size["duration"])
        t2 = time.perf_counter()
        with _paused(tracer):
            frames = probe.take_frames()
            out = self._outputs(scenario, scheme, frames)
        return Cell(start=t0, wall_s=t2 - t0, timed_s=t2 - t1, frames=frames, digest=out,
                    again=self._cell)

    def run_pass(self, tracer=None) -> Pass:
        return Pass.of_cell(self._cell(tracer))

    def extra_checks(self) -> Dict[str, str]:
        """Alerts with their frame-provenance ids.

        Provenance ids are assigned only while the program's own tracer
        is on, which also switches every device to the per-frame plane,
        so this shorter cell runs once per benchmark run, untimed.
        """
        TRACER.reset()
        TRACER.enable()
        try:
            cell = self._cell(duration=self.size["provenance_duration"])
        finally:
            TRACER.disable()
            TRACER.reset()
        return {"provenance": cell.digest}

    def reference(self) -> Dict[str, str]:
        saved = simulator.DEFAULT_BATCHING
        simulator.DEFAULT_BATCHING = False
        try:
            cell = self._cell()
        finally:
            simulator.DEFAULT_BATCHING = saved
        return {"cell": cell.digest}


class Replay(Workload):
    """A synthetic capture written to pcap in set-up, replayed into arpwatch."""

    name = "replay"
    SCHEME = "arpwatch"

    def _source(self) -> SyntheticSource:
        return SyntheticSource(
            frames=self.size["frames"], rate=self.size["rate"], seed=self.seed
        )

    def setup(self) -> float:
        t0 = time.perf_counter()
        os.makedirs(self.workdir, exist_ok=True)
        self.path = os.path.join(self.workdir, f"replay-{self.seed}.pcap")
        with PcapWriter(self.path) as writer:
            for ts, raw in self._source():
                writer.append_frame(ts, raw)
        return time.perf_counter() - t0

    def _cell(self, source, tracer=None) -> Cell:
        t0 = time.perf_counter()
        result = api.run("replay", source=source, scheme=self.SCHEME)
        wall = time.perf_counter() - t0
        with _paused(tracer):
            out = digest({
                "frames": result.frames, "bytes": result.bytes,
                "delivered": result.delivered, "alerts": result.alerts,
            })
        return Cell(start=t0, wall_s=wall, timed_s=None, frames=result.frames, digest=out,
                    again=partial(self._cell, source))

    def run_pass(self, tracer=None) -> Pass:
        return Pass.of_cell(self._cell(f"pcap:{self.path}", tracer))

    def reference(self) -> Dict[str, str]:
        # The same stream straight from the generator, no pcap in between.
        return {"cell": self._cell(self._source()).digest}

    def cleanup(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOAD_TYPES = {cls.name: cls for cls in (Paper, Campus, DefendedLan, Replay)}
