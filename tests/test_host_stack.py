"""Integration tests for the host network stack: ARP, ICMP, UDP, TCP, forwarding."""

from __future__ import annotations

import pytest

from repro.l2.topology import Lan
from repro.net.addresses import BROADCAST_MAC, Ipv4Address, MacAddress
from repro.packets.arp import ArpPacket
from repro.packets.ethernet import EtherType, EthernetFrame
from repro.sim.simulator import Simulator
from repro.stack.arp_cache import BindingSource
from repro.stack.os_profiles import LINUX, SOLARIS_LIKE, STRICT, WINDOWS_XP


@pytest.fixture
def pair(sim):
    lan = Lan(sim)
    a = lan.add_host("a")
    b = lan.add_host("b")
    return lan, a, b


def forged_reply(attacker, victim, spoofed_ip):
    """An unsolicited reply claiming spoofed_ip is at the attacker."""
    arp = ArpPacket.reply(
        sha=attacker.mac, spa=spoofed_ip, tha=victim.mac, tpa=victim.ip
    )
    return EthernetFrame(
        dst=victim.mac, src=attacker.mac, ethertype=EtherType.ARP,
        payload=arp.encode(),
    )


class TestResolution:
    def test_resolve_populates_cache(self, sim, pair):
        lan, a, b = pair
        got = []
        a.resolve(b.ip, on_resolved=got.append)
        sim.run(until=2.0)
        assert got == [b.mac]
        assert a.arp_cache.get(b.ip, sim.now) == b.mac

    def test_resolution_latency_recorded(self, sim, pair):
        lan, a, b = pair
        assert a.resolution_latencies is None  # nothing recorded unless asked
        a.resolution_latencies = []
        a.resolve(b.ip, on_resolved=lambda mac: None)
        sim.run(until=2.0)
        assert len(a.resolution_latencies) == 1
        assert 0 < a.resolution_latencies[0] < 0.01

    def test_cached_resolution_is_immediate(self, sim, pair):
        lan, a, b = pair
        a.resolve(b.ip, on_resolved=lambda mac: None)
        sim.run(until=2.0)
        got = []
        a.resolve(b.ip, on_resolved=got.append)
        assert got == [b.mac]  # synchronous hit

    def test_concurrent_waiters_share_one_request(self, sim, pair):
        lan, a, b = pair
        got = []
        a.resolve(b.ip, on_resolved=got.append)
        a.resolve(b.ip, on_resolved=got.append)
        sim.run(until=2.0)
        assert got == [b.mac, b.mac]
        assert a.counters["arp_requests_sent"] == 1

    def test_resolution_failure_after_retries(self, sim, pair):
        lan, a, b = pair
        failures = []
        a.resolve(
            Ipv4Address("192.168.88.200"),  # nobody home
            on_resolved=lambda mac: pytest.fail("should not resolve"),
            on_failed=lambda: failures.append(1),
        )
        sim.run(until=10.0)
        assert failures == [1]
        assert a.counters["arp_resolution_failures"] == 1
        assert a.counters["arp_requests_sent"] == a.profile.max_retries

    def test_responder_answers_requests_for_own_ip_only(self, sim, pair):
        lan, a, b = pair
        got = []
        a.resolve(b.ip, on_resolved=got.append)
        sim.run(until=2.0)
        assert b.counters["arp_replies_sent"] == 1
        # No one should have answered for an unused address.
        assert a.counters["arp_resolution_failures"] == 0

    def test_responder_can_be_disabled(self, sim, pair):
        lan, a, b = pair
        b.arp_responder_enabled = False
        failures = []
        a.resolve(b.ip, on_resolved=lambda m: None, on_failed=lambda: failures.append(1))
        sim.run(until=10.0)
        assert failures == [1]


class TestCacheUpdatePolicies:
    def test_windows_accepts_unsolicited_reply(self, sim):
        lan = Lan(sim)
        victim = lan.add_host("victim", profile=WINDOWS_XP)
        attacker = lan.add_host("attacker")
        target_ip = Ipv4Address("192.168.88.77")
        attacker.transmit_frame(forged_reply(attacker, victim, target_ip))
        sim.run(until=1.0)
        assert victim.arp_cache.get(target_ip, sim.now) == attacker.mac
        entry = victim.arp_cache.entry(target_ip)
        assert entry.source == BindingSource.UNSOLICITED_REPLY

    def test_linux_ignores_unsolicited_reply_for_unknown_ip(self, sim):
        lan = Lan(sim)
        victim = lan.add_host("victim", profile=LINUX)
        attacker = lan.add_host("attacker")
        target_ip = Ipv4Address("192.168.88.77")
        attacker.transmit_frame(forged_reply(attacker, victim, target_ip))
        sim.run(until=1.0)
        assert victim.arp_cache.get(target_ip, sim.now) is None
        assert victim.counters["arp_unsolicited_ignored"] == 1

    def test_linux_refreshes_existing_from_unsolicited_reply(self, sim):
        lan = Lan(sim)
        victim = lan.add_host("victim", profile=LINUX)
        peer = lan.add_host("peer")
        attacker = lan.add_host("attacker")
        victim.resolve(peer.ip, on_resolved=lambda m: None)
        sim.run(until=1.0)
        attacker.transmit_frame(forged_reply(attacker, victim, peer.ip))
        sim.run(until=2.0)
        assert victim.arp_cache.get(peer.ip, sim.now) == attacker.mac

    def test_linux_updates_existing_from_request(self, sim):
        lan = Lan(sim)
        victim = lan.add_host("victim", profile=LINUX)
        peer = lan.add_host("peer")
        attacker = lan.add_host("attacker")
        victim.resolve(peer.ip, on_resolved=lambda m: None)
        sim.run(until=1.0)
        forged = ArpPacket.request(sha=attacker.mac, spa=peer.ip, tpa=victim.ip)
        attacker.transmit_frame(
            EthernetFrame(dst=victim.mac, src=attacker.mac,
                          ethertype=EtherType.ARP, payload=forged.encode())
        )
        sim.run(until=2.0)
        assert victim.arp_cache.get(peer.ip, sim.now) == attacker.mac

    def test_linux_does_not_create_from_request(self, sim):
        lan = Lan(sim)
        victim = lan.add_host("victim", profile=LINUX)
        attacker = lan.add_host("attacker")
        unknown = Ipv4Address("192.168.88.99")
        forged = ArpPacket.request(sha=attacker.mac, spa=unknown, tpa=victim.ip)
        attacker.transmit_frame(
            EthernetFrame(dst=victim.mac, src=attacker.mac,
                          ethertype=EtherType.ARP, payload=forged.encode())
        )
        sim.run(until=1.0)
        assert victim.arp_cache.get(unknown, sim.now) is None

    def test_solaris_creates_from_request_for_it(self, sim):
        lan = Lan(sim)
        victim = lan.add_host("victim", profile=SOLARIS_LIKE)
        attacker = lan.add_host("attacker")
        unknown = Ipv4Address("192.168.88.99")
        forged = ArpPacket.request(sha=attacker.mac, spa=unknown, tpa=victim.ip)
        attacker.transmit_frame(
            EthernetFrame(dst=victim.mac, src=attacker.mac,
                          ethertype=EtherType.ARP, payload=forged.encode())
        )
        sim.run(until=1.0)
        assert victim.arp_cache.get(unknown, sim.now) == attacker.mac

    def test_strict_ignores_everything_unsolicited(self, sim):
        lan = Lan(sim)
        victim = lan.add_host("victim", profile=STRICT)
        attacker = lan.add_host("attacker")
        target_ip = Ipv4Address("192.168.88.77")
        attacker.transmit_frame(forged_reply(attacker, victim, target_ip))
        grat = ArpPacket.gratuitous(sha=attacker.mac, spa=target_ip)
        attacker.transmit_frame(
            EthernetFrame(dst=BROADCAST_MAC, src=attacker.mac,
                          ethertype=EtherType.ARP, payload=grat.encode())
        )
        sim.run(until=1.0)
        assert victim.arp_cache.get(target_ip, sim.now) is None

    def test_gratuitous_updates_existing_binding(self, sim):
        lan = Lan(sim)
        victim = lan.add_host("victim", profile=LINUX)
        peer = lan.add_host("peer")
        victim.resolve(peer.ip, on_resolved=lambda m: None)
        sim.run(until=1.0)
        peer.mac = MacAddress("02:aa:bb:cc:dd:ee")  # NIC swap
        peer.announce()
        sim.run(until=2.0)
        assert victim.arp_cache.get(peer.ip, sim.now) == peer.mac

    def test_guard_can_force_reject(self, sim, pair):
        lan, a, b = pair
        a.add_arp_guard(lambda host, arp, frame: False)
        failures = []
        a.resolve(b.ip, on_resolved=lambda m: None, on_failed=lambda: failures.append(1))
        sim.run(until=10.0)
        assert failures == [1]
        assert a.counters["arp_guard_drops"] > 0

    def test_guard_removal(self, sim, pair):
        lan, a, b = pair
        remove = a.add_arp_guard(lambda host, arp, frame: False)
        remove()
        got = []
        a.resolve(b.ip, on_resolved=got.append)
        sim.run(until=2.0)
        assert got == [b.mac]

    def test_guard_force_accept_overrides_policy(self, sim):
        lan = Lan(sim)
        victim = lan.add_host("victim", profile=STRICT)
        attacker = lan.add_host("attacker")
        victim.add_arp_guard(lambda host, arp, frame: True)
        target_ip = Ipv4Address("192.168.88.77")
        attacker.transmit_frame(forged_reply(attacker, victim, target_ip))
        sim.run(until=1.0)
        assert victim.arp_cache.get(target_ip, sim.now) == attacker.mac

    def test_receive_cost_decides_on_state_after_the_delay(self, sim):
        """A crypto scheme's receive cost defers the decision, and the
        decision reads the sender's state when it runs: a reply that was
        unsolicited on arrival completes a resolution started during the
        delay."""
        lan = Lan(sim)
        victim = lan.add_host("victim", profile=LINUX)
        attacker = lan.add_host("attacker")
        victim.arp_rx_cost = lambda arp: 0.5
        target_ip = Ipv4Address("192.168.88.77")
        attacker.transmit_frame(forged_reply(attacker, victim, target_ip))
        sim.run(until=0.1)
        got = []
        victim.resolve(target_ip, on_resolved=got.append)
        sim.run(until=0.9)
        assert got == [attacker.mac]
        assert victim.arp_cache.entry(target_ip).source == BindingSource.SOLICITED_REPLY
        assert victim.counters["arp_unsolicited_ignored"] == 0


class TestIcmpAndTransports:
    def test_ping_round_trip(self, sim, pair):
        lan, a, b = pair
        replies = []
        a.ping(b.ip, on_reply=lambda src, rtt: replies.append((src, rtt)))
        sim.run(until=2.0)
        assert len(replies) == 1
        assert replies[0][0] == b.ip
        assert replies[0][1] > 0

    def test_ping_gateway_and_wan(self, sim, pair):
        lan, a, b = pair
        replies = []
        a.ping(Ipv4Address("8.8.8.8"), on_reply=lambda s, r: replies.append(s))
        sim.run(until=2.0)
        assert replies == [Ipv4Address("8.8.8.8")]

    def test_icmp_echo_can_be_disabled(self, sim, pair):
        lan, a, b = pair
        b.icmp_echo_enabled = False
        replies = []
        a.ping(b.ip, on_reply=lambda s, r: replies.append(s))
        sim.run(until=2.0)
        assert replies == []
        assert b.counters["icmp_echo_rx"] == 1

    def test_udp_handler_dispatch(self, sim, pair):
        lan, a, b = pair
        seen = []
        b.udp_bind(5000, lambda host, src, dg: seen.append((src, dg.payload)))
        a.send_udp(b.ip, 1234, 5000, b"hello")
        sim.run(until=2.0)
        assert seen == [(a.ip, b"hello")]

    def test_udp_unreachable_counted(self, sim, pair):
        lan, a, b = pair
        a.send_udp(b.ip, 1234, 5999, b"x")
        sim.run(until=2.0)
        assert b.counters["udp_unreachable"] == 1

    def test_udp_double_bind_rejected(self, sim, pair):
        lan, a, b = pair
        b.udp_bind(5000, lambda host, src, dg: None)
        from repro.errors import StackError

        with pytest.raises(StackError):
            b.udp_bind(5000, lambda host, src, dg: None)

    def test_tcp_probe_open_port_gets_syn_ack(self, sim, pair):
        lan, a, b = pair
        b.tcp_open_ports.add(80)
        answers = []
        a.tcp_probe(b.ip, 80, on_answer=answers.append)
        sim.run(until=2.0)
        from repro.packets.tcp import TcpFlags

        assert len(answers) == 1
        assert answers[0].flags == TcpFlags.SYN | TcpFlags.ACK

    def test_tcp_probe_closed_port_gets_rst(self, sim, pair):
        lan, a, b = pair
        answers = []
        a.tcp_probe(b.ip, 81, on_answer=answers.append)
        sim.run(until=2.0)
        from repro.packets.tcp import TcpFlags

        assert answers[0].flags == TcpFlags.RST

    def test_ping_via_bypasses_arp(self, sim, pair):
        lan, a, b = pair
        replies = []
        a.ping_via(b.ip, b.mac, on_reply=lambda s, r: replies.append(s))
        sim.run(until=2.0)
        assert replies == [b.ip]
        assert a.counters["arp_requests_sent"] == 0

    def test_misaddressed_ip_counted(self, sim):
        """L2-at-me but L3-for-someone-else is the MITM receive symptom."""
        lan = Lan(sim)
        a = lan.add_host("a")
        b = lan.add_host("b")
        c = lan.add_host("c")
        from repro.packets.ipv4 import IpProto, Ipv4Packet

        packet = Ipv4Packet(src=a.ip, dst=c.ip, proto=IpProto.ICMP, payload=b"")
        frame = EthernetFrame(dst=b.mac, src=a.mac, ethertype=EtherType.IPV4,
                              payload=packet.encode())
        a.transmit_frame(frame)
        sim.run(until=1.0)
        assert b.counters["ip_misaddressed"] == 1

    def test_forwarding_relays_to_true_destination(self, sim):
        lan = Lan(sim)
        a = lan.add_host("a")
        b = lan.add_host("b")
        c = lan.add_host("c")
        b.ip_forward = True
        from repro.packets.icmp import IcmpMessage
        from repro.packets.ipv4 import IpProto, Ipv4Packet

        echo = IcmpMessage.echo_request(1, 1, b"x")
        packet = Ipv4Packet(src=a.ip, dst=c.ip, proto=IpProto.ICMP,
                            payload=echo.encode())
        frame = EthernetFrame(dst=b.mac, src=a.mac, ethertype=EtherType.IPV4,
                              payload=packet.encode())
        a.transmit_frame(frame)
        sim.run(until=2.0)
        assert b.counters["ip_forwarded"] == 1
        assert c.counters["icmp_echo_rx"] == 1

    def test_ttl_expiry_stops_forwarding(self, sim):
        lan = Lan(sim)
        a = lan.add_host("a")
        b = lan.add_host("b")
        c = lan.add_host("c")
        b.ip_forward = True
        from repro.packets.ipv4 import IpProto, Ipv4Packet

        packet = Ipv4Packet(src=a.ip, dst=c.ip, proto=IpProto.ICMP, payload=b"", ttl=1)
        frame = EthernetFrame(dst=b.mac, src=a.mac, ethertype=EtherType.IPV4,
                              payload=packet.encode())
        a.transmit_frame(frame)
        sim.run(until=2.0)
        assert b.counters["ip_forwarded"] == 0

    def test_no_route_counted(self, sim):
        lan = Lan(sim)
        a = lan.add_host("a", use_gateway=False)
        a.send_ip(Ipv4Address("8.8.8.8"), 17, b"")
        assert a.counters["ip_no_route"] == 1
