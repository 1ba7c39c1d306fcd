"""A received ARP request ends the same way on every receive path.

RFC 826's receive rule leaves most broadcast requests with nothing to
do: the request asks for another host's address, and its sender is
neither cached nor being resolved (or the stack never learns from
requests).  A host may settle such a request right after decoding it.
An ARP guard forces the full input path, so a twin carrying a guard
that abstains on everything is the reference.  Both hosts must end with
the same counters, cache entries, pending resolutions and transmitted
frames, on the batched plane and with ``batching=False``.
"""

from __future__ import annotations

import pytest

from repro.l2.topology import Lan
from repro.net.addresses import BROADCAST_MAC, Ipv4Address, MacAddress
from repro.packets.arp import ArpPacket
from repro.sim.simulator import Simulator
from repro.sim.trace import Direction, TraceRecorder
from repro.stack.arp_cache import BindingSource
from repro.stack.os_profiles import LINUX, SOLARIS_LIKE, STRICT, WINDOWS_XP

PROFILES = (LINUX, WINDOWS_XP, SOLARIS_LIKE, STRICT)
SHAPES = (
    "for-me",
    "for-me-responder-off",
    "foreign-unknown-sender",
    "foreign-cached-sender",
    "foreign-resolving-sender",
    "probe",
    "probe-for-me",
    "gratuitous",
    "receiver-without-ip",
)

#: The MAC of a station no host knows: a resolution of its address
#: (host 200 of the LAN) stays pending.
PHANTOM_MAC = MacAddress("02:00:00:00:0c:c8")
#: The MAC a stale cache entry holds before a request could refresh it.
STALE_MAC = MacAddress("02:00:00:00:0d:01")


def _receive(profile, shape: str, guarded: bool, batching: bool):
    """Broadcast one request of ``shape`` at a ``profile`` host; return
    everything the receiver could have changed."""
    sim = Simulator(seed=5, batching=batching)
    lan = Lan(sim)
    rx = lan.add_host("rx", profile=profile)
    sender = lan.add_host("sender")
    other = lan.add_host("other")
    rx.recorder = TraceRecorder()
    if guarded:
        rx.add_arp_guard(lambda *a: None)
    sim.run(until=0.1)

    spa, sha, tpa = sender.ip, sender.mac, other.ip
    if shape == "for-me":
        tpa = rx.ip
    elif shape == "for-me-responder-off":
        tpa = rx.ip
        rx.arp_responder_enabled = False
    elif shape == "foreign-cached-sender":
        rx.arp_cache.put(spa, STALE_MAC, now=sim.now, source=BindingSource.REQUEST)
    elif shape == "foreign-resolving-sender":
        spa, sha = lan.network.host(200), PHANTOM_MAC
        rx.resolve(spa, lambda mac: None)
    elif shape == "probe":
        spa = Ipv4Address(0)
    elif shape == "probe-for-me":
        spa, tpa = Ipv4Address(0), rx.ip
    elif shape == "gratuitous":
        tpa = spa
    elif shape == "receiver-without-ip":
        rx.ip = None
    sim.run(until=0.2)
    sender.send_arp(ArpPacket.request(sha=sha, spa=spa, tpa=tpa), BROADCAST_MAC)
    sim.run(until=0.5)

    cache = sorted(
        (int(e.ip), str(e.mac), e.source, e.expires_at) for e in rx.arp_cache
    )
    sent = [r.frame for r in rx.recorder if r.direction == Direction.TX]
    return (
        dict(rx.counters),
        cache,
        sorted(int(ip) for ip in rx._pending_arp),
        sent,
        rx.nic.tx_bytes,
    )


@pytest.mark.parametrize("batching", [True, False], ids=["batched", "per-frame"])
@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("profile", PROFILES, ids=lambda p: p.name)
def test_plain_host_matches_guarded_twin(profile, shape, batching):
    plain = _receive(profile, shape, guarded=False, batching=batching)
    guarded = _receive(profile, shape, guarded=True, batching=batching)
    assert plain == guarded
    assert plain[0]["arp_rx"] >= 1  # the request really reached the host
