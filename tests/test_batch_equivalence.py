"""The batched data plane's load-bearing invariant, as a property:

for any seeded scenario, running it with coalesced batch dispatch and
running it per-frame produce byte-identical ``TraceRecorder`` contents
on every device and identical metric activity in the registry — across
plain, VLAN-segmented and fault-impaired links.

This is the fixed-seed reproducibility guarantee the analysis framework
rests on: batching is allowed to change *how many events* fire, never
*what traffic* any observer records.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FaultSpec, apply_faults
from repro.l2.topology import Lan
from repro.net.addresses import MacAddress
from repro.obs.registry import REGISTRY
from repro.packets.ethernet import EtherType, EthernetFrame
from repro.packets.ipv4 import IpProto, Ipv4Packet
from repro.sim.simulator import Simulator
from repro.sim.trace import TraceRecorder

MODES = ("plain", "vlan", "faults")


def _run_scenario(
    batching: bool, seed: int, n_hosts: int, n_frames: int, mode: str
):
    """Build a LAN, drive mixed traffic, return everything observable."""
    # Fresh registry per run: both planes reuse the same host names, so
    # without a reset the second run's histogram delta is computed by
    # float subtraction against the first's — ULP noise that would mask
    # (or fake) real divergence.
    REGISTRY.reset()
    registry_before = REGISTRY.snapshot()
    sim = Simulator(seed=seed, batching=batching)
    lan = Lan(sim)
    hosts = [lan.add_host(f"h{i}") for i in range(n_hosts)]
    for device in hosts + [lan.switch]:
        device.recorder = TraceRecorder()
    if mode == "vlan":
        for host in hosts:
            lan.switch.set_access_port(
                lan.port_of(host.name), 10 if lan.port_of(host.name) % 2 else 20
            )
    injector = None
    if mode == "faults":
        injector = apply_faults(
            FaultSpec(loss=0.2, dup=0.15, jitter=0.5e-3), lan
        )

    # Mixed traffic: resolutions (request/reply), known-unicast pings,
    # gratuitous broadcasts, and an unknown-unicast flood burst.
    hosts[0].ping(hosts[1].ip)
    hosts[-1].announce()
    sim.run(until=1.0)
    phantom = MacAddress("02:de:ad:be:ef:01")
    packet = Ipv4Packet(
        src=hosts[0].ip, dst=hosts[1].ip, proto=IpProto.UDP, payload=b"q" * 32
    )
    flood_frame = EthernetFrame(
        dst=phantom, src=hosts[0].mac, ethertype=EtherType.IPV4,
        payload=packet.encode(),
    )
    for _ in range(n_frames):
        hosts[0].transmit_frame(flood_frame)
    hosts[1].ping(hosts[0].ip)
    sim.run(until=sim.now + 5.0)
    if injector is not None:
        injector.uninstall()

    recorders = {h.name: list(h.recorder) for h in hosts}
    recorders["switch"] = list(lan.switch.recorder)
    counters = {h.name: dict(h.counters) for h in hosts}
    rx = {h.name: (h.nic.rx_frames, h.nic.rx_bytes) for h in hosts}
    # Only the metrics section: the perf collector legitimately differs
    # between the two planes (that difference is the whole point).
    metrics = REGISTRY.delta(registry_before).get("metrics", {})
    switch_counts = (
        lan.switch.forwarded_frames,
        lan.switch.flooded_frames,
        lan.switch.dropped_frames,
        lan.switch.undecodable_frames,
        lan.switch.vlan_violations,
    )
    return recorders, counters, rx, metrics, switch_counts, sim.now


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    n_hosts=st.integers(min_value=3, max_value=6),
    n_frames=st.integers(min_value=1, max_value=40),
    mode=st.sampled_from(MODES),
)
def test_batched_and_per_frame_planes_are_equivalent(
    seed, n_hosts, n_frames, mode
):
    batched = _run_scenario(True, seed, n_hosts, n_frames, mode)
    unbatched = _run_scenario(False, seed, n_hosts, n_frames, mode)
    assert batched[0] == unbatched[0]  # byte-identical recorder contents
    assert batched[1] == unbatched[1]  # identical host counters
    assert batched[2] == unbatched[2]  # identical NIC rx accounting
    assert batched[3] == unbatched[3]  # identical registry metric activity
    assert batched[4] == unbatched[4]  # identical switch dispositions
    assert batched[5] == unbatched[5]  # clocks end at the same instant


def test_fixed_seed_trace_is_byte_identical_across_reruns():
    """Two batched runs of the same seed: the hard determinism gate."""
    first = _run_scenario(True, seed=11, n_hosts=4, n_frames=20, mode="faults")
    second = _run_scenario(True, seed=11, n_hosts=4, n_frames=20, mode="faults")
    assert first[0] == second[0]
    assert first[1] == second[1]
    assert first[5] == second[5]
