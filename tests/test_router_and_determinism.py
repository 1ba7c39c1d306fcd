"""Router/WAN behaviour and end-to-end determinism guarantees."""

from __future__ import annotations

import pytest

from repro.attacks.mitm import MitmAttack
from repro.l2.topology import Lan
from repro.net.addresses import Ipv4Address
from repro.packets.ipv4 import IpProto, Ipv4Packet
from repro.sim.simulator import Simulator
from repro.sim.trace import TraceRecorder
from repro.stack.os_profiles import WINDOWS_XP


class TestRouterWan:
    def test_wan_echo_for_icmp(self, sim, lan):
        host = lan.add_host("a")
        replies = []
        host.ping(Ipv4Address("1.1.1.1"), on_reply=lambda s, r: replies.append(r))
        sim.run(until=2.0)
        assert len(replies) == 1
        assert replies[0] >= lan.gateway.wan_rtt

    def test_wan_echo_for_udp(self, sim, lan):
        host = lan.add_host("a")
        got = []
        host.udp_bind(5555, lambda h, src, dg: got.append(dg.payload))
        host.send_udp(Ipv4Address("1.1.1.1"), 5555, 9999, b"hello-wan")
        sim.run(until=2.0)
        assert got == [b"wan-echo:hello-wan"]

    def test_wan_counters(self, sim, lan):
        host = lan.add_host("a")
        host.ping(Ipv4Address("1.1.1.1"))
        sim.run(until=2.0)
        assert lan.gateway.wan_tx == 1
        assert lan.gateway.wan_rx == 1

    def test_custom_wan_hook(self, sim, lan):
        host = lan.add_host("a")
        blackholed = []

        def hook(packet: Ipv4Packet):
            blackholed.append(packet.dst)
            return None  # the internet ate it

        lan.gateway.wan_hook = hook
        replies = []
        host.ping(Ipv4Address("1.1.1.1"), on_reply=lambda s, r: replies.append(s))
        sim.run(until=3.0)
        assert blackholed == [Ipv4Address("1.1.1.1")]
        assert replies == []

    def test_router_forwards_between_lan_hosts(self, sim, lan):
        """Hosts can reach each other *via* the gateway when they route
        through it (e.g. traffic redirected by a rogue-gateway attack)."""
        a = lan.add_host("a")
        b = lan.add_host("b")
        echo = Ipv4Packet(
            src=a.ip, dst=b.ip, proto=IpProto.ICMP,
            payload=__import__("repro.packets.icmp", fromlist=["IcmpMessage"])
            .IcmpMessage.echo_request(1, 1, b"x").encode(),
        )
        from repro.packets.ethernet import EtherType, EthernetFrame

        a.resolve(lan.gateway.ip, on_resolved=lambda m: None)
        sim.run(until=1.0)
        gw_mac = a.arp_cache.get(lan.gateway.ip, sim.now)
        a.transmit_frame(
            EthernetFrame(dst=gw_mac, src=a.mac, ethertype=EtherType.IPV4,
                          payload=echo.encode())
        )
        sim.run(until=2.0)
        assert b.counters["icmp_echo_rx"] == 1


def _attack_trace(seed: int) -> tuple[list, list]:
    """One full attack scenario; returns (alert strings, capture digest)."""
    sim = Simulator(seed=seed)
    lan = Lan(sim)
    monitor = lan.add_monitor()
    monitor.recorder = TraceRecorder()
    victim = lan.add_host("victim", profile=WINDOWS_XP)
    mallory = lan.add_host("mallory")
    from repro.schemes import make_scheme

    scheme = make_scheme("hybrid")
    scheme.install(lan, protected=[victim, lan.gateway, monitor])
    victim.ping(lan.gateway.ip)
    sim.run(until=3.0)
    mitm = MitmAttack(mallory, victim, lan.gateway)
    mitm.start()
    cancel = sim.call_every(0.5, lambda: victim.ping(lan.gateway.ip))
    sim.run(until=15.0)
    mitm.stop()
    cancel()
    digest = [(round(r.time, 9), len(r.frame)) for r in monitor.recorder.records]
    return [str(a) for a in scheme.alerts], digest


class TestDeterminism:
    def test_identical_seeds_identical_everything(self):
        alerts_a, digest_a = _attack_trace(seed=123)
        alerts_b, digest_b = _attack_trace(seed=123)
        assert alerts_a == alerts_b
        assert digest_a == digest_b

    def test_different_seeds_differ(self):
        _, digest_a = _attack_trace(seed=123)
        _, digest_b = _attack_trace(seed=124)
        assert digest_a != digest_b  # MACs/jitter differ at minimum
