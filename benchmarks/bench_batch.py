"""Batched data-plane benchmarks: coalesced dispatch and bulk filtering.

These mirror the batch entries of the ``repro bench`` suite
(``repro.perf.bench``) as pytest-benchmark cases, and assert the *shape*
the batch path promises: same-instant deliveries coalesce into a handful
of flush events, CAM resolution over packed wire bytes is one dict probe
per frame, the NIC filter rejects foreign unicast without building frame
views, and — the invariant everything rests on — the batched and
per-frame planes deliver byte-identical traffic.

Run with::

    pytest benchmarks/bench_batch.py --benchmark-only
"""

from __future__ import annotations

from repro.l2.cam import CamTable
from repro.l2.topology import Lan
from repro.net.addresses import BROADCAST_MAC, MacAddress
from repro.packets.arp import ArpPacket
from repro.packets.ethernet import EtherType, EthernetFrame
from repro.packets.ipv4 import IpProto, Ipv4Packet
from repro.perf import PERF
from repro.sim.simulator import Simulator
from repro.sim.trace import TraceRecorder


def _flood_lan(batching: bool, n_hosts: int = 8):
    sim = Simulator(seed=11, batching=batching)
    lan = Lan(sim)
    hosts = [lan.add_host(f"h{i}") for i in range(n_hosts)]
    sender = hosts[0]
    sender.ping(hosts[1].ip)
    sim.run(until=1.0)
    packet = Ipv4Packet(
        src=sender.ip, dst=hosts[1].ip, proto=IpProto.UDP, payload=b"z" * 64
    )
    frame = EthernetFrame(
        dst=MacAddress("02:de:ad:be:ef:01"),  # unknown -> flood
        src=sender.mac,
        ethertype=EtherType.IPV4,
        payload=packet.encode(),
    )
    return sim, lan, hosts, sender, frame


def test_bench_flood_batched(benchmark):
    """Headline: the flood benchmark on the coalesced batch plane."""

    def flood() -> tuple:
        sim, lan, hosts, sender, frame = _flood_lan(batching=True)
        flushes_before = PERF.batch_flushes
        items_before = PERF.batched_items
        for _ in range(50):
            sender.transmit_frame(frame)
        sim.run(until=sim.now + 5.0)
        deliveries = sum(h.nic.rx_frames for h in hosts[1:])
        return (
            deliveries,
            PERF.batch_flushes - flushes_before,
            PERF.batched_items - items_before,
        )

    deliveries, flushes, items = benchmark.pedantic(flood, rounds=3, iterations=1)
    assert deliveries >= 50 * 7
    # Coalescing must actually engage: far fewer flush events than frames.
    assert items >= 50 * 7
    assert flushes < items / 10


def test_bench_flood_unbatched(benchmark):
    """The same flood on the per-frame plane — the comparison baseline."""

    def flood() -> int:
        sim, lan, hosts, sender, frame = _flood_lan(batching=False)
        before = PERF.batch_flushes
        for _ in range(50):
            sender.transmit_frame(frame)
        sim.run(until=sim.now + 5.0)
        assert PERF.batch_flushes == before  # batching stayed off
        return sum(h.nic.rx_frames for h in hosts[1:])

    deliveries = benchmark.pedantic(flood, rounds=3, iterations=1)
    assert deliveries >= 50 * 7


def test_bench_batched_matches_unbatched():
    """Both planes produce identical per-host traffic (not a timing test)."""

    def run(batching: bool):
        sim, lan, hosts, sender, frame = _flood_lan(batching=batching)
        for host in hosts:
            host.recorder = TraceRecorder()
        for _ in range(50):
            sender.transmit_frame(frame)
        sim.run(until=sim.now + 5.0)
        return (
            {h.name: h.nic.rx_frames for h in hosts},
            {h.name: list(h.recorder) for h in hosts},
            sim.now,
        )

    assert run(True) == run(False)


def _foreign_request_flood(guarded: bool, n_hosts: int = 16, n_requests: int = 40):
    """Broadcast requests for an address no station owns; returns the
    settled count and each receiver's ARP receives."""
    sim = Simulator(seed=13, batching=True)
    lan = Lan(sim)
    hosts = [lan.add_host(f"h{i}") for i in range(n_hosts)]
    sender, watched = hosts[0], hosts[1]
    if guarded:
        watched.add_arp_guard(lambda *a: None)
    receivers = [h for h in lan.hosts.values() if h is not sender]
    request = ArpPacket.request(
        sha=sender.mac, spa=sender.ip, tpa=lan.network.host(200)
    )
    before = {h.name: h.counters["arp_rx"] for h in receivers}
    settled = PERF.arp_settled
    for _ in range(n_requests):
        sender.send_arp(request, dst_mac=BROADCAST_MAC)
    sim.run(until=sim.now + 1.0)
    received = {h.name: h.counters["arp_rx"] - before[h.name] for h in receivers}
    assert all(n == n_requests for n in received.values())
    return PERF.arp_settled - settled, received, watched.name


def test_bench_foreign_requests_settled(benchmark):
    """Every plain receiver settles a request for another address."""
    settled, received, _ = benchmark.pedantic(
        lambda: _foreign_request_flood(guarded=False), rounds=3, iterations=1
    )
    assert settled == sum(received.values())


def test_bench_guard_forces_the_full_input_path(benchmark):
    """An ARP guard must see every request, so its host settles none."""
    settled, received, watched = benchmark.pedantic(
        lambda: _foreign_request_flood(guarded=True), rounds=3, iterations=1
    )
    assert settled == sum(received.values()) - received[watched]


def test_bench_cam_lookup_batch(benchmark):
    """Bulk CAM resolution: one expire sweep, then bare dict probes."""
    cam = CamTable(capacity=4096)
    packed = [bytes([2, 0, 0, 0, i >> 8, i & 0xFF]) for i in range(256)]
    for i, mac in enumerate(packed):
        cam.learn_wire(mac, i % 8, now=0.0)

    sweeps_before = cam.sweeps
    ports = benchmark(lambda: cam.lookup_batch(packed, now=1.0))
    assert ports == [i % 8 for i in range(256)]
    # The watermark keeps every one of those expire calls O(1).
    assert cam.sweeps == sweeps_before


def test_bench_nic_batch_filter(benchmark):
    """Foreign unicast dies in one comprehension, no frame views built."""
    sim = Simulator(seed=3)
    from repro.stack.host import Host

    host = Host(sim, "bench-host", mac=MacAddress("02:bb:00:00:00:01"))
    host.recorder = TraceRecorder()
    wire = EthernetFrame(
        dst=MacAddress("02:cc:00:00:00:99"),  # not ours, unicast
        src=MacAddress("02:cc:00:00:00:01"),
        ethertype=EtherType.IPV4,
        payload=b"x" * 64,
    ).encode()
    batch = [wire] * 64

    lazy_before = PERF.lazy_frames
    filtered_before = PERF.nic_batch_filtered
    benchmark(lambda: host.on_frame_batch(host.nic, batch))
    assert PERF.nic_batch_filtered > filtered_before
    assert PERF.lazy_frames == lazy_before  # no FrameView was ever built
    assert len(host.recorder) == 0  # and nothing was captured
