"""Unit tests for the crypto substrate: RSA keys, signed bindings, AKD, LTA."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.experiment import Scenario, ScenarioConfig
from repro.crypto import keys
from repro.crypto.akd import AKD_PORT, AkdClient, AkdService
from repro.crypto.keys import PublicKey, _digest_int, generate_keypair, keychain
from repro.crypto.lta import LocalTicketAgent, Ticket
from repro.crypto.sign import CryptoCostModel, SignedBinding
from repro.errors import CryptoError, KeyRegistrationError
from repro.l2.topology import Lan
from repro.net.addresses import Ipv4Address, MacAddress
from repro.schemes.registry import make_defense

KP = generate_keypair(random.Random(0xC0FFEE), bits=256)
KP2 = generate_keypair(random.Random(0xBEEF), bits=256)
IP = Ipv4Address("192.168.88.10")
MAC = MacAddress("02:00:00:00:00:01")


class TestKeys:
    def test_sign_verify(self):
        sig = KP.private.sign(b"message")
        assert KP.public.verify(b"message", sig)

    def test_wrong_message_fails(self):
        sig = KP.private.sign(b"message")
        assert not KP.public.verify(b"messagE", sig)

    def test_wrong_key_fails(self):
        sig = KP.private.sign(b"message")
        assert not KP2.public.verify(b"message", sig)

    def test_garbage_signature_fails(self):
        assert not KP.public.verify(b"message", b"\x00" * 32)
        assert not KP.public.verify(b"message", b"")

    def test_signature_out_of_range_fails(self):
        huge = (KP.public.n + 5).to_bytes((KP.public.n.bit_length() // 8) + 2, "big")
        assert not KP.public.verify(b"m", huge)

    def test_public_key_wire_roundtrip(self):
        blob = KP.public.encode()
        assert PublicKey.decode(blob) == KP.public

    def test_truncated_blob_rejected(self):
        with pytest.raises(CryptoError):
            PublicKey.decode(KP.public.encode()[:5])

    def test_fingerprint_stable(self):
        assert KP.public.fingerprint == KP.public.fingerprint
        assert KP.public.fingerprint != KP2.public.fingerprint

    def test_deterministic_generation(self):
        a = generate_keypair(random.Random(7), bits=256)
        b = generate_keypair(random.Random(7), bits=256)
        assert a.public == b.public

    def test_tiny_modulus_rejected(self):
        with pytest.raises(CryptoError):
            generate_keypair(random.Random(1), bits=64)

    @given(st.binary(min_size=0, max_size=200))
    @settings(max_examples=25)
    def test_sign_verify_property(self, message):
        assert KP.public.verify(message, KP.private.sign(message))


#: One key per modulus size the CRT property is checked at.
CRT_KEYS = {bits: generate_keypair(random.Random(bits), bits=bits) for bits in (256, 384, 512)}


class TestCrtSigning:
    @pytest.mark.parametrize("bits", sorted(CRT_KEYS))
    @given(message=st.binary(min_size=0, max_size=200))
    @settings(max_examples=40)
    def test_crt_sign_equals_textbook(self, bits, message):
        private = CRT_KEYS[bits].private
        n = private.n
        textbook = pow(_digest_int(message, n), private.d, n)
        assert private.sign(message) == textbook.to_bytes((n.bit_length() + 7) // 8, "big")

    def test_crt_parameters(self):
        private = CRT_KEYS[512].private
        assert private.p * private.q == private.n
        assert private.dp == private.d % (private.p - 1)
        assert private.dq == private.d % (private.q - 1)
        assert private.qinv * private.q % private.p == 1

    def test_repr_hides_private_fields(self):
        pair = CRT_KEYS[512]
        text = repr(pair)
        assert str(pair.public.n) in text  # the public modulus is fine to show
        for name in ("d", "p", "q", "dp", "dq", "qinv"):
            assert str(getattr(pair.private, name)) not in text, name


@pytest.fixture
def fresh_keychains(monkeypatch):
    """An empty schedule table, so each test draws its prefixes cold."""
    monkeypatch.setattr(keys, "_KEYCHAINS", type(keys._KEYCHAINS)())


def _generated(label, bits, count):
    rng = random.Random(label)
    return [generate_keypair(rng, bits=bits) for _ in range(count)]


class TestKeychain:
    def test_matches_repeated_generation(self, fresh_keychains):
        chain = keychain("7/sarp/keys", bits=128)
        assert [next(chain) for _ in range(5)] == _generated("7/sarp/keys", 128, 5)

    def test_short_prefix_then_longer(self, fresh_keychains):
        first = keychain("x", bits=128)
        short = [next(first) for _ in range(2)]
        second = keychain("x", bits=128)
        longer = [next(second) for _ in range(4)]
        assert short == longer[:2]
        assert longer == _generated("x", 128, 4)
        # The earlier iterator picks up where it stopped, on the same pairs.
        assert next(first) is longer[2]
        assert len(keys._KEYCHAINS[("x", 128)][0]) == 4

    def test_interleaved_labels_and_sizes(self, fresh_keychains):
        chains = {
            ("a", 128): keychain("a", bits=128),
            ("b", 128): keychain("b", bits=128),
            ("a", 192): keychain("a", bits=192),
        }
        drawn = {key: [] for key in chains}
        for key in [("a", 128), ("b", 128), ("a", 192), ("a", 128), ("a", 192), ("b", 128)]:
            drawn[key].append(next(chains[key]))
        for (label, bits), pairs in drawn.items():
            assert pairs == _generated(label, bits, 2)

    def test_table_is_bounded_and_eviction_is_exact(self, fresh_keychains):
        for i in range(keys.KEYCHAIN_CAP + 3):
            next(keychain(f"cap/{i}", bits=128))
        assert len(keys._KEYCHAINS) == keys.KEYCHAIN_CAP
        assert ("cap/0", 128) not in keys._KEYCHAINS
        assert next(keychain("cap/0", bits=128)) == _generated("cap/0", 128, 1)[0]

    def test_no_work_until_drawn(self, fresh_keychains):
        keychain("lazy", bits=128)
        assert keys._KEYCHAINS == {}


#: Public-key fingerprints S-ARP and TARP installed before the key
#: schedule was memoized (seed 7, 8 users); the schedule must not move them.
SARP_FINGERPRINTS = {
    "gateway": "dfb6dd82c5696dce",
    "monitor": "66a104a7691e06a5",
    "sarp-akd": "0e20d5380a91c3b0",
    "user-0": "50d62c3698bb2b08",
    "user-1": "bc4bd03f8780c686",
    "user-2": "174980ea93423050",
    "user-3": "b2779209b21d975f",
    "user-4": "31aa2992cf3c4ed2",
    "user-5": "c850804e67864448",
    "user-6": "bf5cb17eaa5e3374",
    "user-7": "b1e3875a45848b5b",
}
TARP_FINGERPRINT = "e37014aeea9712ef"


def _installed(key):
    scheme = make_defense(key)
    Scenario(ScenarioConfig(n_hosts=8, seed=7)).install(scheme)
    return scheme


class TestSchemeKeysPinned:
    def test_sarp_fingerprints_cold_and_warm(self, fresh_keychains):
        for _ in range(2):  # the first install fills the schedule, the second reuses it
            sarp = _installed("s-arp")
            got = {
                name: state.keypair.public.fingerprint
                for name, state in sarp._states.items()
            }
            assert got == SARP_FINGERPRINTS
            assert sarp.akd.public_key.fingerprint == SARP_FINGERPRINTS["sarp-akd"]

    def test_tarp_fingerprint_cold_and_warm(self, fresh_keychains):
        for _ in range(2):
            assert _installed("tarp").lta.public_key.fingerprint == TARP_FINGERPRINT


class TestSignedBinding:
    def test_create_verify(self):
        binding = SignedBinding.create(IP, MAC, timestamp=10.0, key=KP.private)
        assert binding.verify(KP.public)

    def test_tampered_binding_fails(self):
        binding = SignedBinding.create(IP, MAC, timestamp=10.0, key=KP.private)
        forged = SignedBinding(
            ip=IP, mac=MacAddress("02:00:00:00:00:99"),
            timestamp=10.0, signature=binding.signature,
        )
        assert not forged.verify(KP.public)

    def test_freshness_window(self):
        binding = SignedBinding.create(IP, MAC, timestamp=100.0, key=KP.private)
        assert binding.fresh(now=105.0, max_age=30.0)
        assert not binding.fresh(now=200.0, max_age=30.0)
        assert not binding.fresh(now=50.0, max_age=30.0)  # from the future

    def test_wire_roundtrip(self):
        binding = SignedBinding.create(IP, MAC, timestamp=1.5, key=KP.private)
        decoded = SignedBinding.decode(binding.encode())
        assert decoded == binding
        assert decoded.verify(KP.public)

    def test_truncated_rejected(self):
        binding = SignedBinding.create(IP, MAC, timestamp=1.5, key=KP.private)
        with pytest.raises(CryptoError):
            SignedBinding.decode(binding.encode()[:10])

    def test_cost_model_scaling(self):
        model = CryptoCostModel(sign_time=2e-3, verify_time=1e-3)
        slow = model.scaled(2.0)
        assert slow.sign_time == pytest.approx(4e-3)
        with pytest.raises(CryptoError):
            model.scaled(0)


class TestTickets:
    def test_issue_and_verify(self):
        lta = LocalTicketAgent(KP)
        ticket = lta.issue(IP, MAC, now=0.0)
        assert ticket.verify(lta.public_key)
        assert ticket.valid_at(100.0)
        assert not ticket.valid_at(1e6)

    def test_forged_ticket_fails(self):
        lta = LocalTicketAgent(KP)
        ticket = lta.issue(IP, MAC, now=0.0)
        forged = Ticket(
            ip=Ipv4Address("192.168.88.66"), mac=MAC,
            issued_at=ticket.issued_at, expires_at=ticket.expires_at,
            signature=ticket.signature,
        )
        assert not forged.verify(lta.public_key)

    def test_wire_roundtrip(self):
        lta = LocalTicketAgent(KP)
        ticket = lta.issue(IP, MAC, now=3.0, validity=60.0)
        decoded = Ticket.decode(ticket.encode())
        assert decoded == ticket
        assert decoded.verify(lta.public_key)

    def test_nonpositive_validity_rejected(self):
        lta = LocalTicketAgent(KP)
        with pytest.raises(CryptoError):
            lta.issue(IP, MAC, now=0.0, validity=0.0)

    def test_issue_counter(self):
        lta = LocalTicketAgent(KP)
        lta.issue(IP, MAC, now=0.0)
        lta.issue(IP, MAC, now=1.0)
        assert lta.tickets_issued == 2


class TestAkd:
    def make_lan(self, sim):
        lan = Lan(sim)
        akd_host = lan.add_host("akd")
        service = AkdService(akd_host, KP)
        client_host = lan.add_host("client")
        client = AkdClient(client_host, akd_host.ip, KP.public)
        return lan, service, client

    def test_enroll_and_lookup_over_the_wire(self, sim):
        lan, service, client = self.make_lan(sim)
        target = Ipv4Address("192.168.88.50")
        service.enroll(target, KP2.public)
        got = []
        client.lookup(target, got.append)
        sim.run(until=2.0)
        assert got == [KP2.public]
        assert service.queries_served == 1

    def test_lookup_caches(self, sim):
        lan, service, client = self.make_lan(sim)
        target = Ipv4Address("192.168.88.50")
        service.enroll(target, KP2.public)
        client.lookup(target, lambda k: None)
        sim.run(until=2.0)
        client.lookup(target, lambda k: None)
        assert client.queries_sent == 1

    def test_unknown_ip_times_out_with_none(self, sim):
        lan, service, client = self.make_lan(sim)
        got = []
        client.lookup(Ipv4Address("192.168.88.99"), got.append)
        sim.run(until=2.0)
        assert got == [None]
        assert service.unknown_queries == 1

    def test_conflicting_enrollment_rejected(self, sim):
        lan, service, client = self.make_lan(sim)
        target = Ipv4Address("192.168.88.50")
        service.enroll(target, KP2.public)
        with pytest.raises(KeyRegistrationError):
            service.enroll(target, KP.public)

    def test_reenrollment_same_key_ok(self, sim):
        lan, service, client = self.make_lan(sim)
        target = Ipv4Address("192.168.88.50")
        service.enroll(target, KP2.public)
        service.enroll(target, KP2.public)

    def test_revoke(self, sim):
        lan, service, client = self.make_lan(sim)
        target = Ipv4Address("192.168.88.50")
        service.enroll(target, KP2.public)
        service.revoke(target)
        assert not service.knows(target)

    def test_responses_are_signed_once_per_registry_entry(self, sim, monkeypatch):
        import struct

        lan, service, client = self.make_lan(sim)
        other = AkdClient(lan.add_host("other"), service.host.ip, KP.public)
        target = Ipv4Address("192.168.88.50")
        service.enroll(target, KP2.public)
        sent = []
        send_udp = service.host.send_udp
        monkeypatch.setattr(
            service.host, "send_udp",
            lambda dst, sport, dport, payload: sent.append(payload)
            or send_udp(dst, sport, dport, payload),
        )
        signs = []
        sign = keys.PrivateKey.sign
        monkeypatch.setattr(
            keys.PrivateKey, "sign", lambda self, message: signs.append(message)
            or sign(self, message),
        )
        got = []
        client.lookup(target, got.append)
        other.lookup(target, got.append)
        sim.run(until=2.0)
        assert got == [KP2.public, KP2.public]
        assert service.queries_served == 2
        blob = KP2.public.encode()
        signature = sign(KP.private, target.packed + blob)
        fresh = (
            b"AKDR" + target.packed + struct.pack("!H", len(blob)) + blob
            + struct.pack("!H", len(signature)) + signature
        )
        assert sent == [fresh, fresh]
        assert len(signs) == 1

        # A revoked entry's response goes with it: a new key is re-signed.
        service.revoke(target)
        service.enroll(target, KP.public)
        client.cache.clear()
        client.lookup(target, got.append)
        sim.run(until=4.0)
        assert got[-1] == KP.public
        assert service.queries_served == 3
        assert len(signs) == 2 and sent[-1] != fresh

    def test_forged_akd_response_ignored(self, sim):
        """An attacker answering AKD queries without the AKD key loses."""
        lan, service, client = self.make_lan(sim)
        target = Ipv4Address("192.168.88.50")
        service.enroll(target, KP2.public)
        mallory = lan.add_host("mallory")

        import struct

        blob = KP2.public.encode()  # real key but *mallory's* signature
        fake_sig = KP2.private.sign(target.packed + blob)
        response = (
            b"AKDR" + target.packed
            + struct.pack("!H", len(blob)) + blob
            + struct.pack("!H", len(fake_sig)) + fake_sig
        )
        got = []
        client.lookup(target, got.append)
        mallory.send_udp(client.host.ip, AKD_PORT, client._port, response)
        sim.run(until=2.0)
        # The forged response was discarded; the honest one (or the
        # timeout) resolved the lookup with a verified key.
        assert client.bad_responses >= 1
        assert got and (got[0] is None or got[0] == KP2.public)
