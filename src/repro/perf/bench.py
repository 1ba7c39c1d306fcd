"""The bench suite and its regression gate.

Every benchmark lives in one registry, :data:`SUITE`, and measures one
workload in operations per second: the wire fast-path layers, the
broadcast-flood headline on both data planes, campus-scale spine-leaf
build and churn cells, and replay ingest.  :func:`run_suite` returns
``{name: ops_per_sec}``.  The committed baseline (``BENCH.json`` at the
repo root) plus :func:`check` turn the suite into a regression gate:
``repro bench --check`` fails when any benchmark drops below ``baseline
* tolerance``, and ``repro bench --update`` rewrites the baseline.

Two tags on each entry say when a run produces its key: ``batched_only``
keys measure the coalesced dispatch plane and are skipped under
``--no-batch``; ``full_only`` keys are skipped under ``--quick``.
:func:`expected_keys` derives a run's key set from the tags, and the
gate checks exactly that set.

The default tolerance is deliberately loose (0.5) because the suite runs
on shared CI machines; the gate exists to catch order-of-magnitude
regressions (an accidentally disabled memo cache, a quadratic decode),
not single-digit noise.
"""

from __future__ import annotations

import json
import platform
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Dict, List, Optional

__all__ = [
    "BASELINE_PATH",
    "DEFAULT_TOLERANCE",
    "SUITE",
    "Bench",
    "check",
    "expected_keys",
    "format_results",
    "load_baseline",
    "run_suite",
    "write_baseline",
]

#: The committed baseline: ``BENCH.json`` at the repo root.
BASELINE_PATH = Path(__file__).resolve().parents[3] / "BENCH.json"
DEFAULT_TOLERANCE = 0.5

#: Inner-loop iteration counts: full and --quick.
_ITERS = {"full": 20_000, "quick": 2_000}
_REPEATS = {"full": 5, "quick": 2}


# ----------------------------------------------------------------------
# Wire workloads — each micro builder returns (callable, ops_per_call)
# ----------------------------------------------------------------------
def _sample_frame_bytes() -> bytes:
    from repro.net.addresses import MacAddress
    from repro.packets.ethernet import EtherType, EthernetFrame

    frame = EthernetFrame(
        dst=MacAddress("02:00:00:00:00:02"),
        src=MacAddress("02:00:00:00:00:01"),
        ethertype=EtherType.IPV4,
        payload=bytes(range(64)),
    )
    return frame.encode()


def _bench_encode_fresh() -> tuple:
    from repro.net.addresses import BROADCAST_MAC, Ipv4Address, MacAddress
    from repro.packets.arp import ArpOp, ArpPacket

    sha = MacAddress("02:00:00:00:00:01")
    spa = Ipv4Address("10.0.0.1")
    tpa = Ipv4Address("10.0.0.2")

    def work() -> None:
        ArpPacket(
            op=ArpOp.REQUEST, sha=sha, spa=spa, tha=BROADCAST_MAC, tpa=tpa
        ).encode()

    return work, 1


def _bench_encode_memoized() -> tuple:
    from repro.net.addresses import BROADCAST_MAC, Ipv4Address, MacAddress
    from repro.packets.arp import ArpOp, ArpPacket

    packet = ArpPacket(
        op=ArpOp.REQUEST,
        sha=MacAddress("02:00:00:00:00:01"),
        spa=Ipv4Address("10.0.0.1"),
        tha=BROADCAST_MAC,
        tpa=Ipv4Address("10.0.0.2"),
    )
    packet.encode()  # prime the memo

    def work() -> None:
        packet.encode()

    return work, 1


def _bench_decode_eager() -> tuple:
    from repro.packets.ethernet import EthernetFrame

    wire = _sample_frame_bytes()

    def work() -> None:
        EthernetFrame.decode(wire)

    return work, 1


def _bench_decode_lazy_header() -> tuple:
    from repro.packets.ethernet import EthernetFrame

    wire = _sample_frame_bytes()

    def work() -> None:
        EthernetFrame.lazy(wire)

    return work, 1


def _bench_checksum_odd() -> tuple:
    from repro.packets.base import internet_checksum

    data = bytes(range(256)) * 5 + b"\x7f"  # 1281 bytes, odd

    def work() -> None:
        internet_checksum(data)

    return work, 1


def _bench_intern_addresses() -> tuple:
    from repro.net.addresses import MacAddress

    packed = [bytes([2, 0, 0, 0, 0, i]) for i in range(16)]

    def work() -> None:
        for p in packed:
            MacAddress.from_wire(p)

    return work, len(packed)


def _bench_cam_lookup_batch() -> tuple:
    from repro.l2.cam import CamTable

    cam = CamTable(capacity=4096)
    packed = [bytes([2, 0, 0, 0, i >> 8, i & 0xFF]) for i in range(256)]
    for i, mac in enumerate(packed):
        cam.learn_wire(mac, i % 8, now=0.0)

    def work() -> None:
        cam.lookup_batch(packed, now=1.0)

    return work, len(packed)


def _bench_nic_batch_filter() -> tuple:
    from repro.net.addresses import MacAddress
    from repro.sim.simulator import Simulator
    from repro.stack.host import Host

    sim = Simulator(seed=3)
    host = Host(sim, "bench-host", mac=MacAddress("02:bb:00:00:00:01"))
    wire = _sample_frame_bytes()  # dst 02:00:00:00:00:02 — foreign unicast
    batch = [wire] * 64

    def work() -> None:
        host.on_frame_batch(host.nic, batch)

    return work, len(batch)


def _bench_ipv4_icmp_echo_codec() -> tuple:
    """One echo round through the codecs: a fresh echo request encoded
    into IPv4 and an Ethernet frame as a host sends it, then decoded back
    as the receiver does, with both checksums verified."""
    from repro.net.addresses import Ipv4Address, MacAddress
    from repro.packets.ethernet import EtherType, FrameView, frame_bytes
    from repro.packets.icmp import IcmpMessage
    from repro.packets.ipv4 import IpProto, Ipv4Packet

    src, dst = Ipv4Address("10.0.0.1"), Ipv4Address("10.0.0.2")
    src_mac, dst_mac = MacAddress("02:00:00:00:00:01"), MacAddress("02:00:00:00:00:02")
    sequence = iter(range(1 << 62))

    def work() -> None:
        seq = next(sequence) & 0xFFFF
        message = IcmpMessage.echo_request(7, seq, b"repro-ping")
        packet = Ipv4Packet(
            src=src, dst=dst, proto=IpProto.ICMP, payload=message.encode(),
            identification=seq,
        )
        wire = frame_bytes(dst_mac, src_mac, EtherType.IPV4, packet.encode())
        IcmpMessage.decode(Ipv4Packet.decode(FrameView(wire).payload).payload)

    return work, 1


def _bench_broadcast_flood(quick: bool, batching: bool = True) -> float:
    """Headline number: end-to-end flood deliveries per second.

    One sender transmits unknown-unicast frames into a switched LAN; the
    switch floods each to every other port.  This exercises the whole
    stack — lazy decode at the switch, single-serialization flooding,
    the tuple-keyed event heap, coalesced batch dispatch (``batching``),
    and NIC-level filtering at the hosts.
    """
    from repro.l2.topology import Lan
    from repro.net.addresses import MacAddress
    from repro.packets.ethernet import EtherType, EthernetFrame
    from repro.packets.ipv4 import IpProto, Ipv4Packet
    from repro.sim.simulator import Simulator

    # Quick mode still needs wide-enough batches and a long-enough timed
    # region to sit within tolerance of the full-mode baseline; 8 hosts
    # puts the batched number at ~25% of it, 16 hosts at ~80%.
    n_hosts = 16 if quick else 24
    frames = 300 if quick else 400
    repeats = _REPEATS["quick" if quick else "full"]

    best = 0.0
    for _ in range(repeats):
        sim = Simulator(seed=11, batching=batching)
        lan = Lan(sim)
        hosts = [lan.add_host(f"h{i}") for i in range(n_hosts)]
        sender = hosts[0]
        sender.ping(hosts[1].ip)  # warm the CAM for the sender
        sim.run(until=1.0)
        phantom = MacAddress("02:de:ad:be:ef:01")  # unknown unicast -> flood
        packet = Ipv4Packet(
            src=sender.ip, dst=hosts[1].ip, proto=IpProto.UDP, payload=b"z" * 64
        )
        frame = EthernetFrame(
            dst=phantom, src=sender.mac, ethertype=EtherType.IPV4,
            payload=packet.encode(),
        )
        start = time.perf_counter()
        for _ in range(frames):
            sender.transmit_frame(frame)
        sim.run(until=sim.now + 5.0)
        elapsed = time.perf_counter() - start
        best = max(best, frames * (n_hosts - 1) / elapsed)
    return best


def _time_ops(work: Callable[[], None], ops_per_call: int, quick: bool) -> float:
    mode = "quick" if quick else "full"
    iters = _ITERS[mode]
    best = 0.0
    for _ in range(_REPEATS[mode]):
        start = time.perf_counter()
        for _ in range(iters):
            work()
        elapsed = time.perf_counter() - start
        if elapsed > 0:
            best = max(best, iters * ops_per_call / elapsed)
    return best


def _micro(builder: Callable[[], tuple]) -> Callable[[bool], float]:
    """Adapt a ``(work, ops_per_call)`` builder to a suite runner."""

    def run(quick: bool) -> float:
        work, ops_per_call = builder()
        return _time_ops(work, ops_per_call, quick)

    return run


# ----------------------------------------------------------------------
# Campus-scale and replay cells
# ----------------------------------------------------------------------
#: The 1k-host campus cell both modes run: 4 buildings x 5 leaves x 50 hosts.
_CELL_1K = dict(buildings=4, leaves_per_building=5, hosts_per_leaf=50)
#: The 10k-host campus cell (full mode): 10 x 10 x 100.
_CELL_10K = dict(buildings=10, leaves_per_building=10, hosts_per_leaf=100)


def _bench_campus_build(quick: bool) -> float:
    """Hosts wired per second of topology construction (O(n) build gate)."""
    from repro.l2.topology import Campus
    from repro.sim import Simulator

    best = 0.0
    for _ in range(2 if quick else 3):
        sim = Simulator(seed=7)
        start = time.perf_counter()
        campus = Campus(sim, **_CELL_1K)
        elapsed = time.perf_counter() - start
        if elapsed > 0:
            best = max(best, campus.total_hosts / elapsed)
    return best


def _bench_campus_churn(quick: bool, shards: int, cell: Dict[str, int]) -> float:
    """Aggregate batched-plane deliveries/sec for one churn cell."""
    from repro.core.scale import _run_campus_churn

    result = _run_campus_churn(
        None,
        talkers=24 if quick else 64,
        duration=0.8 if quick else 1.5,
        shards=shards,
        **cell,
    )
    return result.deliveries_per_sec


def _replay_trace(frames: int):
    """The canonical replay trace: default mix, fixed seed."""
    from repro.replay.sources import SyntheticSource

    return SyntheticSource(frames=frames, seed=7)


def _bench_replay_source(quick: bool) -> float:
    """Raw synthetic generation rate: frames/sec out of the generator."""
    frames = 100_000 if quick else 200_000
    best = 0.0
    for _ in range(2 if quick else 3):
        source = _replay_trace(frames)
        start = time.perf_counter()
        n = sum(1 for _ in source)
        elapsed = time.perf_counter() - start
        if elapsed > 0:
            best = max(best, n / elapsed)
    return best


def _bench_replay_engine(quick: bool, scheme: Optional[str]) -> float:
    """Replay ingest rate (frames/sec), optionally under a scheme.

    The replay engine delivers straight into the monitor RX path, not
    through coalesced event dispatch, so these keys run on both planes.
    """
    from repro.replay.engine import _run_replay

    frames = 100_000 if quick else 300_000
    best = 0.0
    for _ in range(2 if quick else 3):
        result = _run_replay(scheme, source=_replay_trace(frames))
        best = max(best, result.frames_per_sec)
    return best


def _bench_replay_pcap(quick: bool, scheme: Optional[str]) -> float:
    """Replay ingest rate (frames/sec) from a pcap, under a scheme.

    The canonical trace is written to a temporary capture before the
    timed runs, so the rate covers the pcap record walk with the
    capture filter inside it, plus the engine and the scheme.
    """
    import tempfile

    from repro.analysis.pcap import PcapWriter
    from repro.replay.engine import _run_replay

    frames = 100_000 if quick else 300_000
    best = 0.0
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "replay.pcap"
        with PcapWriter(path) as writer:
            for ts, raw in _replay_trace(frames):
                writer.append_frame(ts, raw)
        for _ in range(2 if quick else 3):
            result = _run_replay(scheme, source=f"pcap:{path}")
            best = max(best, result.frames_per_sec)
    return best


# ----------------------------------------------------------------------
# The suite registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Bench:
    """One suite entry: ``run(quick)`` returns ops/sec.

    ``batched_only`` keys measure the coalesced dispatch plane and are
    not produced under ``--no-batch``; ``full_only`` keys are not
    produced under ``--quick``.
    """

    run: Callable[[bool], float]
    batched_only: bool = False
    full_only: bool = False


#: Every benchmark, in run order.
SUITE: Dict[str, Bench] = {
    "encode_arp_fresh": Bench(_micro(_bench_encode_fresh)),
    "encode_arp_memoized": Bench(_micro(_bench_encode_memoized)),
    "decode_frame_eager": Bench(_micro(_bench_decode_eager)),
    "decode_frame_lazy_header": Bench(_micro(_bench_decode_lazy_header)),
    "checksum_odd_1281B": Bench(_micro(_bench_checksum_odd)),
    "intern_mac_from_wire": Bench(_micro(_bench_intern_addresses)),
    "cam_lookup_batch_wire": Bench(_micro(_bench_cam_lookup_batch)),
    "nic_batch_filter": Bench(_micro(_bench_nic_batch_filter)),
    "ipv4_icmp_echo_codec": Bench(_micro(_bench_ipv4_icmp_echo_codec)),
    "broadcast_flood_unbatched": Bench(
        partial(_bench_broadcast_flood, batching=False)
    ),
    "broadcast_flood_deliveries": Bench(
        partial(_bench_broadcast_flood, batching=True), batched_only=True
    ),
    "campus_build_hosts_per_sec": Bench(_bench_campus_build, batched_only=True),
    "campus_churn_deliveries": Bench(
        partial(_bench_campus_churn, shards=0, cell=_CELL_1K), batched_only=True
    ),
    "campus_churn_sharded_deliveries": Bench(
        partial(_bench_campus_churn, shards=1, cell=_CELL_1K), batched_only=True
    ),
    "campus_churn_forked_deliveries": Bench(
        partial(_bench_campus_churn, shards=2, cell=_CELL_1K),
        batched_only=True,
        full_only=True,
    ),
    "campus_churn_10k_deliveries": Bench(
        partial(_bench_campus_churn, shards=1, cell=_CELL_10K),
        batched_only=True,
        full_only=True,
    ),
    "replay_source_fps": Bench(_bench_replay_source),
    "replay_engine_fps": Bench(partial(_bench_replay_engine, scheme=None)),
    "replay_arpwatch_fps": Bench(partial(_bench_replay_engine, scheme="arpwatch")),
    "replay_pcap_arpwatch_fps": Bench(partial(_bench_replay_pcap, scheme="arpwatch")),
}


def expected_keys(quick: bool, batching: bool) -> frozenset:
    """The :data:`SUITE` keys a run in this mode produces and is gated on."""
    return frozenset(
        name
        for name, bench in SUITE.items()
        if not (bench.full_only and quick)
        and not (bench.batched_only and not batching)
    )


def run_suite(quick: bool = False) -> Dict[str, float]:
    """Run every benchmark this mode produces; returns ``{name: ops_per_sec}``.

    The mode is ``quick`` plus the process-default event batching, which
    ``repro bench --no-batch`` turns off before the run.
    """
    from repro.sim.simulator import DEFAULT_BATCHING

    expected = expected_keys(quick, DEFAULT_BATCHING)
    return {
        name: bench.run(quick)
        for name, bench in SUITE.items()
        if name in expected
    }


# ----------------------------------------------------------------------
# Baseline I/O and the gate
# ----------------------------------------------------------------------
def write_baseline(path: Path, results: Dict[str, float]) -> None:
    payload = {
        "meta": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "note": "ops/sec; regenerate with: repro bench --update",
        },
        "results": {name: round(ops, 1) for name, ops in results.items()},
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def load_baseline(path: Path) -> Dict[str, float]:
    payload = json.loads(path.read_text())
    return {name: float(ops) for name, ops in payload["results"].items()}


def check(
    results: Dict[str, float],
    baseline: Dict[str, float],
    expected: frozenset,
    tolerance: float = DEFAULT_TOLERANCE,
) -> List[str]:
    """Gate ``results`` against ``baseline``; returns failure messages.

    ``expected`` is the run's :func:`expected_keys`.  An expected key
    fails when it is missing from ``results`` or its throughput fell
    below ``baseline * tolerance``; one with no baseline yet passes.  A
    baseline key unknown to :data:`SUITE` fails too: a renamed or
    dropped benchmark must regenerate the baseline, not silently ungate
    it.  Baseline keys the tags exclude from this run are not gated.
    """
    failures = [
        f"{name}: baseline key unknown to the suite"
        for name in sorted(set(baseline) - set(SUITE))
    ]
    for name in sorted(expected):
        current = results.get(name)
        if current is None:
            failures.append(f"{name}: missing from current run")
            continue
        base_ops = baseline.get(name)
        if base_ops is None:
            continue
        floor = base_ops * tolerance
        if current < floor:
            failures.append(
                f"{name}: {current:,.0f} ops/s < floor {floor:,.0f} "
                f"(baseline {base_ops:,.0f} x tolerance {tolerance})"
            )
    return failures


def format_results(
    results: Dict[str, float], baseline: Optional[Dict[str, float]] = None
) -> str:
    lines = []
    width = max(len(n) for n in results)
    for name, ops in results.items():
        line = f"  {name:<{width}}  {ops:>14,.0f} ops/s"
        if baseline and name in baseline and baseline[name] > 0:
            line += f"  ({ops / baseline[name]:.2f}x baseline)"
        lines.append(line)
    return "\n".join(lines)
