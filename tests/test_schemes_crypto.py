"""Tests for the cryptographic schemes: S-ARP and TARP."""

from __future__ import annotations

import pytest

from repro.attacks.arp_poison import ArpPoisoner, PoisonTarget
from repro.l2.topology import Lan
from repro.net.addresses import BROADCAST_MAC, MacAddress
from repro.packets.arp import ArpExtension, ArpPacket, TARP_MAGIC
from repro.packets.ethernet import EtherType, EthernetFrame
from repro.schemes.sarp import SecureArp
from repro.schemes.tarp import TicketArp
from repro.stack.arp_cache import BindingSource
from repro.stack.os_profiles import WINDOWS_XP


@pytest.fixture
def rig(sim):
    lan = Lan(sim)
    victim = lan.add_host("victim", profile=WINDOWS_XP)
    peer = lan.add_host("peer")
    mallory = lan.add_host("mallory")
    protected = [victim, peer, lan.gateway]
    return lan, victim, peer, mallory, protected


def poison(sim, mallory, victim, spoofed_ip, technique="reply", until=6.0):
    poisoner = ArpPoisoner(
        mallory,
        [
            PoisonTarget(
                victim_ip=victim.ip,
                victim_mac=victim.mac,
                spoofed_ip=spoofed_ip,
                claimed_mac=mallory.mac,
            )
        ],
        technique=technique,
    )
    poisoner.start()
    sim.run(until=until)
    poisoner.stop()
    return poisoner


class TestSecureArp:
    def test_enrolled_hosts_resolve_each_other(self, sim, rig):
        lan, victim, peer, mallory, protected = rig
        scheme = SecureArp()
        scheme.install(lan, protected=protected)
        got = []
        victim.resolve(peer.ip, on_resolved=got.append)
        sim.run(until=5.0)
        assert got == [peer.mac]
        entry = victim.arp_cache.entry(peer.ip)
        assert entry.source in (BindingSource.SARP, BindingSource.SOLICITED_REPLY)

    @pytest.mark.parametrize("technique", ["reply", "request", "gratuitous"])
    def test_poisoning_prevented(self, sim, rig, technique):
        lan, victim, peer, mallory, protected = rig
        scheme = SecureArp()
        scheme.install(lan, protected=protected)
        victim.resolve(peer.ip, on_resolved=lambda m: None)
        sim.run(until=5.0)
        poison(sim, mallory, victim, peer.ip, technique=technique, until=10.0)
        assert victim.arp_cache.get(peer.ip, sim.now) == peer.mac
        if technique != "request":
            # Forged requests are ignored by the strict policy rather than
            # dropped by the signature check (requests are unsigned in S-ARP).
            assert scheme.unsigned_dropped > 0

    def test_resolution_slower_than_plain(self, sim, rig):
        lan, victim, peer, mallory, protected = rig
        scheme = SecureArp()
        scheme.install(lan, protected=protected)
        victim.resolve(peer.ip, on_resolved=lambda m: None)
        sim.run(until=5.0)
        assert victim.resolution_latencies[0] > scheme.cost_model.sign_time

    def test_unenrolled_host_cannot_be_resolved(self, sim, rig):
        lan, victim, peer, mallory, protected = rig
        scheme = SecureArp()
        scheme.install(lan, protected=protected)  # mallory not enrolled
        failures = []
        victim.resolve(
            mallory.ip, on_resolved=lambda m: None,
            on_failed=lambda: failures.append(1),
        )
        sim.run(until=10.0)
        assert failures == [1]

    def test_forged_signature_rejected(self, sim, rig):
        """An attacker with its *own* S-ARP keys still cannot sign for a
        victim IP — the AKD hands out the victim's real key."""
        lan, victim, peer, mallory, protected = rig
        scheme = SecureArp()
        scheme.install(lan, protected=protected)
        victim.resolve(peer.ip, on_resolved=lambda m: None)
        sim.run(until=5.0)
        # Mallory crafts an S-ARP-looking reply signed with a random key.
        import random

        from repro.crypto.keys import generate_keypair
        from repro.crypto.sign import SignedBinding

        bogus = generate_keypair(random.Random(99), bits=256)
        binding = SignedBinding.create(
            peer.ip, mallory.mac, timestamp=sim.now, key=bogus.private
        )
        arp = ArpPacket(
            op=2, sha=mallory.mac, spa=peer.ip, tha=victim.mac, tpa=victim.ip,
            extension=ArpExtension(magic=b"SARP", payload=binding.encode()),
        )
        mallory.transmit_frame(
            EthernetFrame(dst=victim.mac, src=mallory.mac,
                          ethertype=EtherType.ARP, payload=arp.encode())
        )
        sim.run(until=8.0)
        assert victim.arp_cache.get(peer.ip, sim.now) == peer.mac
        assert scheme.signatures_rejected >= 1
        assert any(a.kind == "invalid-signature" for a in scheme.alerts)

    def test_replayed_signature_goes_stale(self, sim, rig):
        lan, victim, peer, mallory, protected = rig
        scheme = SecureArp(freshness_window=5.0)
        scheme.install(lan, protected=protected)
        victim.resolve(peer.ip, on_resolved=lambda m: None)
        sim.run(until=5.0)
        # Capture a genuine signed gratuitous announcement...
        peer.announce()
        sim.run(until=6.0)
        captured = []
        mallory.frame_taps.add(
            lambda frame, raw: frame.ethertype == EtherType.ARP
            and captured.append(raw)
        )
        peer.announce()
        sim.run(until=7.0)
        assert captured
        # ...and replay it much later: the freshness window rejects it.
        sim.run(until=30.0)
        mallory.nic.transmit_batch((captured[0],))
        sim.run(until=32.0)
        assert scheme.signatures_rejected >= 1

    def test_akd_host_added_and_enrolled(self, sim, rig):
        lan, victim, peer, mallory, protected = rig
        scheme = SecureArp()
        scheme.install(lan, protected=protected)
        assert "sarp-akd" in lan.hosts
        assert scheme.akd is not None
        assert scheme.akd.knows(victim.ip)
        assert not scheme.akd.knows(mallory.ip)

    def test_state_size_nonzero(self, sim, rig):
        lan, victim, peer, mallory, protected = rig
        scheme = SecureArp()
        scheme.install(lan, protected=protected)
        assert scheme.state_size() >= len(protected)


class TestTicketArp:
    def test_enrolled_hosts_resolve_each_other(self, sim, rig):
        lan, victim, peer, mallory, protected = rig
        scheme = TicketArp()
        scheme.install(lan, protected=protected)
        got = []
        victim.resolve(peer.ip, on_resolved=got.append)
        sim.run(until=5.0)
        assert got == [peer.mac]
        assert scheme.tickets_verified >= 1

    @pytest.mark.parametrize("technique", ["reply", "request", "gratuitous"])
    def test_poisoning_prevented(self, sim, rig, technique):
        lan, victim, peer, mallory, protected = rig
        scheme = TicketArp()
        scheme.install(lan, protected=protected)
        victim.resolve(peer.ip, on_resolved=lambda m: None)
        sim.run(until=5.0)
        poison(sim, mallory, victim, peer.ip, technique=technique, until=10.0)
        assert victim.arp_cache.get(peer.ip, sim.now) == peer.mac

    def test_faster_than_sarp(self, sim, rig):
        lan, victim, peer, mallory, protected = rig
        scheme = TicketArp()
        scheme.install(lan, protected=protected)
        victim.resolve(peer.ip, on_resolved=lambda m: None)
        sim.run(until=5.0)
        tarp_latency = victim.resolution_latencies[0]
        assert tarp_latency < scheme.cost_model.sign_time + scheme.cost_model.verify_time

    def test_mismatched_ticket_rejected(self, sim, rig):
        """Replaying the victim's ticket under the attacker's MAC fails:
        the ticket names the victim's MAC."""
        lan, victim, peer, mallory, protected = rig
        scheme = TicketArp()
        scheme.install(lan, protected=protected)
        victim.resolve(peer.ip, on_resolved=lambda m: None)
        sim.run(until=5.0)
        ticket = scheme.ticket_for("peer")
        arp = ArpPacket(
            op=2, sha=mallory.mac, spa=peer.ip, tha=victim.mac, tpa=victim.ip,
            extension=ArpExtension(magic=TARP_MAGIC, payload=ticket.encode()),
        )
        mallory.transmit_frame(
            EthernetFrame(dst=victim.mac, src=mallory.mac,
                          ethertype=EtherType.ARP, payload=arp.encode())
        )
        sim.run(until=8.0)
        assert victim.arp_cache.get(peer.ip, sim.now) == peer.mac
        assert scheme.tickets_rejected >= 1

    def test_ticket_replay_with_mac_spoofing_succeeds(self, sim, rig):
        """TARP's documented residual weakness: replay the ticket *and*
        spoof the victim's MAC, and receivers accept the claim.  (The
        traffic still flows to the victim's MAC, so interposition
        additionally needs port stealing — but the cache is polluted.)"""
        lan, victim, peer, mallory, protected = rig
        scheme = TicketArp()
        scheme.install(lan, protected=protected)
        victim.resolve(peer.ip, on_resolved=lambda m: None)
        sim.run(until=5.0)
        ticket = scheme.ticket_for("peer")
        arp = ArpPacket(
            op=2, sha=peer.mac, spa=peer.ip, tha=victim.mac, tpa=victim.ip,
            extension=ArpExtension(magic=TARP_MAGIC, payload=ticket.encode()),
        )
        # Frame source is spoofed to the victim's MAC too.
        mallory.transmit_frame(
            EthernetFrame(dst=victim.mac, src=peer.mac,
                          ethertype=EtherType.ARP, payload=arp.encode())
        )
        sim.run(until=8.0)
        assert scheme.tickets_verified >= 2  # the replay verified fine

    def test_expired_ticket_rejected(self, sim, rig):
        lan, victim, peer, mallory, protected = rig
        scheme = TicketArp(ticket_validity=10.0)
        scheme.install(lan, protected=protected)
        sim.run(until=20.0)  # all tickets now expired
        failures = []
        victim.resolve(
            peer.ip, on_resolved=lambda m: None,
            on_failed=lambda: failures.append(1),
        )
        sim.run(until=30.0)
        assert failures == [1]
        assert scheme.tickets_rejected >= 1

    def test_no_runtime_lta_traffic(self, sim, rig):
        """TARP's selling point: zero key-server messages at runtime."""
        lan, victim, peer, mallory, protected = rig
        scheme = TicketArp()
        scheme.install(lan, protected=protected)
        victim.resolve(peer.ip, on_resolved=lambda m: None)
        sim.run(until=5.0)
        assert scheme.messages_sent == 0
