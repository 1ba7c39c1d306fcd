"""Tests for the attack toolkit: poisoning variants, MITM, DoS, support attacks."""

from __future__ import annotations

import pytest

from repro.attacks.arp_poison import ArpPoisoner, PoisonTarget
from repro.attacks.dhcp_starvation import DhcpStarvation
from repro.attacks.dos import BlackholeDos
from repro.attacks.mac_flood import MacFlood
from repro.attacks.mitm import MitmAttack
from repro.attacks.rogue_dhcp import RogueDhcpServer
from repro.errors import AttackError
from repro.l2.topology import Lan
from repro.net.addresses import Ipv4Address
from repro.stack.dhcp_client import DhcpClient
from repro.stack.os_profiles import LINUX, WINDOWS_XP


def make_target(victim, spoofed_ip, attacker):
    return PoisonTarget(
        victim_ip=victim.ip,
        victim_mac=victim.mac,
        spoofed_ip=spoofed_ip,
        claimed_mac=attacker.mac,
    )


class TestArpPoisoner:
    def test_reply_poisoning_against_xp(self, sim, small_lan):
        lan, victim, peer, mallory = small_lan
        poisoner = ArpPoisoner(
            mallory, [make_target(victim, peer.ip, mallory)], technique="reply"
        )
        poisoner.start()
        sim.run(until=3.0)
        poisoner.stop()
        assert victim.arp_cache.get(peer.ip, sim.now) == mallory.mac
        assert poisoner.frames_sent >= 1

    def test_reply_poisoning_fails_against_linux_cold_cache(self, sim):
        lan = Lan(sim)
        victim = lan.add_host("victim", profile=LINUX)
        peer = lan.add_host("peer")
        mallory = lan.add_host("mallory")
        poisoner = ArpPoisoner(
            mallory, [make_target(victim, peer.ip, mallory)], technique="reply"
        )
        poisoner.start()
        sim.run(until=3.0)
        assert victim.arp_cache.get(peer.ip, sim.now) is None

    def test_request_poisoning_against_linux_warm_cache(self, sim):
        lan = Lan(sim)
        victim = lan.add_host("victim", profile=LINUX)
        peer = lan.add_host("peer")
        mallory = lan.add_host("mallory")
        victim.resolve(peer.ip, on_resolved=lambda m: None)
        sim.run(until=1.0)
        poisoner = ArpPoisoner(
            mallory, [make_target(victim, peer.ip, mallory)], technique="request"
        )
        poisoner.start()
        sim.run(until=4.0)
        assert victim.arp_cache.get(peer.ip, sim.now) == mallory.mac

    def test_gratuitous_poisoning_hits_many_hosts(self, sim):
        lan = Lan(sim)
        victims = [lan.add_host(f"v{i}", profile=LINUX) for i in range(3)]
        peer = lan.add_host("peer")
        mallory = lan.add_host("mallory")
        for victim in victims:
            victim.resolve(peer.ip, on_resolved=lambda m: None)
        sim.run(until=1.0)
        poisoner = ArpPoisoner(
            mallory,
            [make_target(victims[0], peer.ip, mallory)],
            technique="gratuitous",
        )
        poisoner.start()
        sim.run(until=4.0)
        for victim in victims:  # broadcast poisons everyone at once
            assert victim.arp_cache.get(peer.ip, sim.now) == mallory.mac

    def test_reactive_poisoning_races_resolutions(self, sim, small_lan):
        lan, victim, peer, mallory = small_lan
        poisoner = ArpPoisoner(
            mallory, [make_target(victim, peer.ip, mallory)], technique="reactive"
        )
        poisoner.start()
        victim.resolve(peer.ip, on_resolved=lambda m: None)
        sim.run(until=3.0)
        assert poisoner.races_won == 1
        assert victim.arp_cache.get(peer.ip, sim.now) == mallory.mac

    def test_reactive_idle_until_request_seen(self, sim, small_lan):
        lan, victim, peer, mallory = small_lan
        poisoner = ArpPoisoner(
            mallory, [make_target(victim, peer.ip, mallory)], technique="reactive"
        )
        poisoner.start()
        sim.run(until=3.0)
        assert poisoner.frames_sent == 0

    def test_stop_ceases_fire(self, sim, small_lan):
        lan, victim, peer, mallory = small_lan
        poisoner = ArpPoisoner(
            mallory, [make_target(victim, peer.ip, mallory)], interval=0.5
        )
        poisoner.start()
        sim.run(until=2.0)
        sent = poisoner.frames_sent
        poisoner.stop()
        sim.run(until=10.0)
        assert poisoner.frames_sent == sent

    def test_intervals_recorded(self, sim, small_lan):
        lan, victim, peer, mallory = small_lan
        poisoner = ArpPoisoner(mallory, [make_target(victim, peer.ip, mallory)])
        poisoner.start()
        sim.run(until=2.0)
        poisoner.stop()
        intervals = poisoner.active_intervals
        assert len(intervals) == 1
        assert intervals[0][0] < intervals[0][1]
        assert poisoner.was_active_at(1.0)
        assert not poisoner.was_active_at(100.0)

    def test_config_validation(self, sim, small_lan):
        lan, victim, peer, mallory = small_lan
        with pytest.raises(AttackError):
            ArpPoisoner(mallory, [], technique="reply")
        with pytest.raises(AttackError):
            ArpPoisoner(mallory, [make_target(victim, peer.ip, mallory)],
                        technique="quantum")
        with pytest.raises(AttackError):
            ArpPoisoner(mallory, [make_target(victim, peer.ip, mallory)], interval=0)

    def test_double_start_rejected(self, sim, small_lan):
        lan, victim, peer, mallory = small_lan
        poisoner = ArpPoisoner(mallory, [make_target(victim, peer.ip, mallory)])
        poisoner.start()
        with pytest.raises(AttackError):
            poisoner.start()


class TestMitm:
    def test_traffic_flows_through_attacker(self, sim, small_lan):
        lan, victim, peer, mallory = small_lan
        victim.ping(lan.gateway.ip)
        sim.run(until=2.0)
        mitm = MitmAttack(mallory, victim, lan.gateway)
        mitm.start()
        replies = []
        cancel = sim.call_every(
            0.5, lambda: victim.ping(lan.gateway.ip, on_reply=lambda s, r: replies.append(s))
        )
        sim.run(until=12.0)
        mitm.stop()
        cancel()
        assert mitm.frames_relayed > 5  # interception happened
        assert len(replies) > 5  # and the session stayed alive

    def test_tamper_hook_replaces_packets(self, sim, small_lan):
        lan, victim, peer, mallory = small_lan
        victim.ping(lan.gateway.ip)
        sim.run(until=2.0)

        def tamper(packet):
            from repro.packets.ipv4 import Ipv4Packet

            return Ipv4Packet(
                src=packet.src, dst=packet.dst, proto=packet.proto,
                payload=b"\x00" * len(packet.payload), ttl=packet.ttl,
            )

        mitm = MitmAttack(mallory, victim, lan.gateway, tamper=tamper)
        mitm.start()
        cancel = sim.call_every(0.5, lambda: victim.ping(lan.gateway.ip))
        sim.run(until=8.0)
        mitm.stop()
        cancel()
        assert any(p.tampered for p in mitm.intercepted)

    def test_stop_restores_forwarding_flag(self, sim, small_lan):
        lan, victim, peer, mallory = small_lan
        assert not mallory.ip_forward
        mitm = MitmAttack(mallory, victim, lan.gateway)
        mitm.start()
        assert mallory.ip_forward
        mitm.stop()
        assert not mallory.ip_forward

    def test_requires_configured_victims(self, sim, lan):
        host = lan.add_dhcp_host("unconfigured")
        mallory = lan.add_host("mallory")
        with pytest.raises(ValueError):
            MitmAttack(mallory, host, lan.gateway)


class TestBlackholeDos:
    def test_victim_loses_gateway(self, sim, small_lan):
        lan, victim, peer, mallory = small_lan
        replies = []
        victim.ping(lan.gateway.ip, on_reply=lambda s, r: replies.append(s))
        sim.run(until=2.0)
        assert len(replies) == 1
        dos = BlackholeDos(mallory, [victim], target_ip=lan.gateway.ip)
        dos.start()
        sim.run(until=5.0)
        victim.ping(lan.gateway.ip, on_reply=lambda s, r: replies.append(s))
        sim.run(until=8.0)
        dos.stop()
        assert len(replies) == 1  # the second ping went into the void
        assert victim.arp_cache.get(lan.gateway.ip, sim.now) == dos.dead_mac


class TestMacFlood:
    def test_cam_fills_and_fails_open(self, sim):
        lan = Lan(sim, cam_capacity=128)
        mallory = lan.add_host("mallory")
        flood = MacFlood(mallory, rate_per_second=2000, burst=50)
        flood.start()
        sim.run(until=2.0)
        flood.stop()
        assert lan.switch.is_fail_open()
        assert lan.switch.cam.learn_failures > 0
        assert flood.frames_sent >= 128

    def test_sniffer_sees_flooded_unicast_after_attack(self, sim):
        lan = Lan(sim, cam_capacity=64, cam_aging=3600)
        a = lan.add_host("a")
        b = lan.add_host("b")
        eve = lan.add_host("eve")
        eve.promiscuous = True
        flood = MacFlood(eve, rate_per_second=5000, burst=100)
        flood.start()
        sim.run(until=1.0)
        flood.stop()
        # a's entry was never learned (table full), so a->b unicast floods
        # and eve's NIC sees it.
        seen = []
        eve.frame_taps.add(lambda frame, raw: seen.append(frame))
        a.ping(b.ip)
        sim.run(until=3.0)
        from repro.packets.ethernet import EtherType

        assert any(
            f.ethertype == EtherType.IPV4 and f.src == a.mac for f in seen
        )

    def test_rate_validation(self, sim, small_lan):
        lan, victim, peer, mallory = small_lan
        with pytest.raises(AttackError):
            MacFlood(mallory, rate_per_second=0)


class TestDhcpStarvation:
    def test_greedy_starvation_exhausts_pool(self, sim):
        lan = Lan(sim, network="10.0.3.0/24")
        server = lan.enable_dhcp(pool_start=100, pool_end=115)
        mallory = lan.add_host("mallory")
        attack = DhcpStarvation(mallory, rate_per_second=20, greedy=True)
        attack.start()
        sim.run(until=10.0)
        attack.stop()
        assert server.is_exhausted
        assert attack.leases_captured >= 16

    def test_lazy_starvation_burns_offers_only(self, sim):
        lan = Lan(sim, network="10.0.3.0/24")
        server = lan.enable_dhcp(pool_start=100, pool_end=115)
        mallory = lan.add_host("mallory")
        attack = DhcpStarvation(mallory, rate_per_second=40, greedy=False)
        attack.start()
        sim.run(until=3.0)
        attack.stop()
        assert attack.leases_captured == 0
        assert server.offers_made > 0

    def test_legit_client_starved(self, sim):
        lan = Lan(sim, network="10.0.3.0/24")
        server = lan.enable_dhcp(pool_start=100, pool_end=105)
        mallory = lan.add_host("mallory")
        DhcpStarvation(mallory, rate_per_second=20, greedy=True).start()
        sim.run(until=5.0)
        late = lan.add_dhcp_host("late")
        client = DhcpClient(late, retry_timeout=1.0, max_retries=2)
        client.start()
        sim.run(until=10.0)
        assert client.binds == 0


class TestRogueDhcp:
    def test_rogue_server_hands_out_attacker_gateway(self, sim):
        lan = Lan(sim, network="10.0.3.0/24")
        # No legitimate DHCP at all: the rogue wins uncontested.
        mallory = lan.add_host("mallory")
        rogue = RogueDhcpServer(mallory, lan.network, pool_start=200, pool_end=210)
        rogue.start()
        dupe = lan.add_dhcp_host("dupe")
        DhcpClient(dupe).start()
        sim.run(until=10.0)
        assert rogue.victims_captured == 1
        assert dupe.gateway == mallory.ip
        rogue.stop()

    def test_rogue_needs_ip(self, sim):
        lan = Lan(sim, network="10.0.3.0/24")
        host = lan.add_dhcp_host("no-ip")
        with pytest.raises(AttackError):
            RogueDhcpServer(host, lan.network, pool_start=1, pool_end=5)
