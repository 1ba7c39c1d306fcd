"""Property: sharding is invisible to every observer (satellite of ISSUE 9).

A 3-switch chain (``s0 - s1 - s2``, hosts hanging off each) is driven by
a fixed-seed workload under four engine configurations — batching on/off
crossed with unsharded / 2-partition sharding (partition A owns s0+s1,
partition B owns s2; the s1-s2 inter-switch link becomes the boundary).
All four must produce byte-identical ``TraceRecorder`` contents on every
host and switch: batching may change how many *events* fire and sharding
may change *which heap* runs them, but never what any device records.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.l2.device import Link
from repro.l2.switch import Switch
from repro.net.addresses import Ipv4Network, MacAddress
from repro.sim import ShardedSimulator, Simulator, simulator
from repro.sim.trace import TraceRecorder
from repro.stack.host import Host

NET = Ipv4Network("10.77.0.0/24")
LINK_LATENCY = 50e-6
TRUNK_LATENCY = 1e-3  # inter-switch; the boundary latency when sharded


def _build_chain(engine, hosts_per_switch: int, sharded: bool):
    """s0 - s1 - s2 with ``hosts_per_switch`` hosts each, identical
    construction order in both engine shapes."""
    if sharded:
        left = engine.add_partition("left")  # owns s0, s1
        right = engine.add_partition("right")  # owns s2
        sims = [left, left, right]
    else:
        sims = [engine, engine, engine]

    switches = [
        Switch(sims[i], f"s{i}", num_ports=hosts_per_switch + 2)
        for i in range(3)
    ]
    hosts = []
    index = 0
    for i, switch in enumerate(switches):
        if sharded:
            sims[i].register(switch)
        for k in range(hosts_per_switch):
            index += 1
            host = Host(
                sims[i],
                f"s{i}h{k}",
                mac=MacAddress(0x02_00_00_00_77_00 + index),
                ip=NET.host(10 + index),
                network=NET,
            )
            if sharded:
                sims[i].register(host)
            Link(
                sims[i], host.nic, switch.ports[k], latency=LINK_LATENCY
            )
            hosts.append(host)

    # Trunks: s0-s1 is always intra-partition; s1-s2 crosses when sharded.
    Link(
        sims[0],
        switches[0].ports[hosts_per_switch],
        switches[1].ports[hosts_per_switch],
        latency=TRUNK_LATENCY,
    )
    if sharded:
        engine.connect(
            switches[1].ports[hosts_per_switch + 1],
            switches[2].ports[hosts_per_switch],
            latency=TRUNK_LATENCY,
        )
    else:
        Link(
            engine,
            switches[1].ports[hosts_per_switch + 1],
            switches[2].ports[hosts_per_switch],
            latency=TRUNK_LATENCY,
        )
    return hosts, switches


def _run_chain(
    seed: int,
    hosts_per_switch: int,
    pings: list,
    batching: bool,
    sharded: bool,
):
    # Partitions read the process default as they are built, the way
    # perfbench picks the plane.
    default = simulator.DEFAULT_BATCHING
    simulator.DEFAULT_BATCHING = batching
    try:
        engine = ShardedSimulator(seed=seed) if sharded else Simulator(seed=seed)
        hosts, switches = _build_chain(engine, hosts_per_switch, sharded)
    finally:
        simulator.DEFAULT_BATCHING = default
    for device in hosts + switches:
        device.recorder = TraceRecorder()
    n = len(hosts)
    for step, (a, b) in enumerate(pings):
        src, dst = hosts[a % n], hosts[b % n]
        if src is dst:
            continue
        src.sim.schedule_at(
            0.05 * (step + 1), lambda s=src, d=dst: s.ping(d.ip)
        )
    hosts[0].announce()
    engine.run(until=2.0)
    return (
        {h.name: list(h.recorder) for h in hosts},
        {s.name: list(s.recorder) for s in switches},
    )


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    hosts_per_switch=st.integers(min_value=1, max_value=3),
    pings=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=8),
            st.integers(min_value=0, max_value=8),
        ),
        min_size=1,
        max_size=6,
    ),
)
def test_chain_traces_identical_across_batching_and_sharding(
    seed, hosts_per_switch, pings
):
    reference = None
    for batching in (True, False):
        for sharded in (False, True):
            traces = _run_chain(seed, hosts_per_switch, pings, batching, sharded)
            if reference is None:
                reference = traces
                # The workload must generate traffic or the property is vacuous.
                assert any(records for records in traces[0].values())
            else:
                assert traces == reference, (
                    f"divergence at batching={batching} sharded={sharded}"
                )
