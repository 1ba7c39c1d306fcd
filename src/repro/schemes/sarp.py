"""Scheme 4 — S-ARP: secure ARP with per-host signatures and an AKD.

S-ARP (Bruschi, Ornaghi, Rosti) replaces trust-by-assertion with
public-key cryptography: every host signs the bindings it announces, and
verifies announcements with keys fetched from an Authoritative Key
Distributor.  Inside a fully enrolled LAN this *prevents* poisoning — an
attacker without a victim's private key cannot produce an acceptable
claim — at the price the analysis quantifies: key infrastructure to run,
every stack modified, and signing/verification latency on the critical
path of address resolution (the reproduced Figure 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.crypto.akd import AkdClient, AkdService
from repro.crypto.keys import KeyPair, keychain
from repro.crypto.sign import CryptoCostModel, SignedBinding
from repro.errors import CryptoError, SchemeError
from repro.l2.topology import Lan
from repro.net.addresses import Ipv4Address
from repro.packets.arp import ArpExtension, ArpPacket, SARP_MAGIC
from repro.packets.ethernet import EthernetFrame
from repro.schemes.base import Coverage, Scheme, SchemeProfile, Severity
from repro.stack.arp_cache import BindingSource
from repro.stack.host import Host
from repro.stack.os_profiles import STRICT

__all__ = ["SecureArp"]


@dataclass
class _HostState:
    keypair: KeyPair
    client: AkdClient
    stashed: Dict[Ipv4Address, List[ArpPacket]] = field(default_factory=dict)


class SecureArp(Scheme):
    """Signed ARP + Authoritative Key Distributor."""

    profile = SchemeProfile(
        key="s-arp",
        display_name="S-ARP (signed ARP + AKD)",
        kind="prevention",
        placement="host+server",
        requires_infra_change=True,
        requires_host_change=True,
        requires_crypto=True,
        supports_dhcp_networks=True,
        cost="high",
        claimed_coverage={
            "reply": Coverage.PREVENTS,
            "request": Coverage.PREVENTS,
            "gratuitous": Coverage.PREVENTS,
            "reactive": Coverage.PREVENTS,
        },
        limitations=(
            "needs an online trusted key distributor (single point of failure)",
            "every host's stack must be replaced",
            "signing/verification slows every resolution several-fold",
            "unenrolled (legacy) hosts cannot be resolved securely",
        ),
        reference="Bruschi, Ornaghi & Rosti — S-ARP: a Secure ARP (ACSAC'03)",
    )

    def __init__(
        self,
        cost_model: Optional[CryptoCostModel] = None,
        key_bits: int = 512,
        freshness_window: float = 30.0,
        alert_on_invalid: bool = True,
    ) -> None:
        super().__init__()
        self.cost_model = cost_model or CryptoCostModel()
        self.key_bits = key_bits
        self.freshness_window = freshness_window
        self.alert_on_invalid = alert_on_invalid
        self.akd: Optional[AkdService] = None
        self._states: Dict[str, _HostState] = {}
        self.signatures_verified = 0
        self.signatures_rejected = 0
        self.unsigned_dropped = 0

    # ------------------------------------------------------------------
    def _install(self, lan: Lan, protected: List[Host]) -> None:
        # The pairs rng_stream("sarp/keys") would draw, memoized across runs.
        keys = keychain(f"{lan.sim.seed}/sarp/keys", bits=self.key_bits)
        akd_host = lan.add_host("sarp-akd", use_gateway=False)
        akd_keys = next(keys)
        self.akd = AkdService(akd_host, akd_keys)
        assert akd_host.ip is not None

        # The AKD host itself speaks S-ARP so its own replies verify.
        members = [h for h in protected if h.ip is not None]
        members.append(akd_host)
        for host in members:
            # The AKD signs its own ARP with its master key (which every
            # member holds a priori); everyone else gets a fresh pair.
            keypair = akd_keys if host is akd_host else next(keys)
            self.akd.enroll(host.ip, keypair.public)
            client = AkdClient(host, akd_host.ip, self.akd.public_key)
            client.cache[akd_host.ip] = akd_keys.public  # bootstrap trust
            state = _HostState(keypair=keypair, client=client)
            self._states[host.name] = state
            self._attach_host(host, state)

    def _attach_host(self, host: Host, state: _HostState) -> None:
        saved_profile = host.profile
        host.profile = STRICT

        def transform(arp: ArpPacket) -> ArpPacket:
            return self._sign_outgoing(host, state, arp)

        saved_transform = host.arp_tx_transform
        host.arp_tx_transform = transform

        saved_rx_cost = host.arp_rx_cost
        host.arp_rx_cost = lambda arp: (
            self.cost_model.verify_time
            if arp.extension is not None and arp.extension.magic == SARP_MAGIC
            else 0.0
        )
        saved_tx_cost = host.arp_tx_cost
        host.arp_tx_cost = lambda arp: (
            self.cost_model.sign_time
            if arp.extension is not None and arp.extension.magic == SARP_MAGIC
            else 0.0
        )

        self._attach(host.arp_guards, self._make_guard(state))

        def restore() -> None:
            host.profile = saved_profile
            host.arp_tx_transform = saved_transform
            host.arp_rx_cost = saved_rx_cost
            host.arp_tx_cost = saved_tx_cost

        self._on_teardown(restore)

    # ------------------------------------------------------------------
    # Outbound: sign what we announce
    # ------------------------------------------------------------------
    def _sign_outgoing(
        self, host: Host, state: _HostState, arp: ArpPacket
    ) -> ArpPacket:
        if arp.is_request and not arp.is_gratuitous:
            return arp  # requests carry no authenticated claim in S-ARP
        if host.ip is None or arp.spa != host.ip or arp.sha != host.mac:
            return arp  # never sign a claim that is not our own binding
        binding = SignedBinding.create(
            ip=arp.spa,
            mac=arp.sha,
            timestamp=host.sim.now,
            key=state.keypair.private,
        )
        return ArpPacket(
            op=arp.op,
            sha=arp.sha,
            spa=arp.spa,
            tha=arp.tha,
            tpa=arp.tpa,
            extension=ArpExtension(magic=SARP_MAGIC, payload=binding.encode()),
        )

    # ------------------------------------------------------------------
    # Inbound: verify before the cache is touched
    # ------------------------------------------------------------------
    def _make_guard(self, state: _HostState):
        def guard(
            host: Host, arp: ArpPacket, frame: EthernetFrame
        ) -> Optional[bool]:
            return self._guard(host, state, arp)

        return guard

    def _guard(
        self, host: Host, state: _HostState, arp: ArpPacket
    ) -> Optional[bool]:
        if arp.is_request and not arp.is_gratuitous:
            return None  # requests are answered but never learned (STRICT)
        if arp.extension is None or arp.extension.magic != SARP_MAGIC:
            self.unsigned_dropped += 1
            if self.alert_on_invalid:
                # Unsigned ARP is routine on any LAN with unenrolled
                # (legacy) hosts: log, do not page.
                self.raise_alert(
                    time=host.sim.now,
                    severity=Severity.INFO,
                    kind="unsigned-arp",
                    ip=arp.spa,
                    mac=arp.sha,
                    message=f"dropped by {host.name}",
                    dedup_window=60.0,
                )
            return False
        try:
            binding = SignedBinding.decode(arp.extension.payload)
        except CryptoError:
            return self._reject(host, arp, "malformed signature blob")
        if binding.ip != arp.spa or binding.mac != arp.sha:
            return self._reject(host, arp, "signed binding does not match claim")
        if not binding.fresh(host.sim.now, self.freshness_window):
            return self._reject(host, arp, "stale signature (replay?)")
        key = state.client.cache.get(arp.spa)
        if key is not None:
            if key.verify(
                SignedBinding.message_bytes(binding.ip, binding.mac, binding.timestamp),
                binding.signature,
            ):
                self.signatures_verified += 1
                return True
            return self._reject(host, arp, "signature verification failed")
        # Key unknown: stash the claim and ask the AKD.
        stash = state.stashed.setdefault(arp.spa, [])
        stash.append(arp)
        if len(stash) == 1:
            self.messages_sent += 1
            state.client.lookup(
                arp.spa, lambda k: self._on_key(host, state, arp.spa, k)
            )
        return False

    def _reject(self, host: Host, arp: ArpPacket, why: str) -> bool:
        self.signatures_rejected += 1
        if self.alert_on_invalid:
            self.raise_alert(
                time=host.sim.now,
                severity=Severity.CRITICAL,
                kind="invalid-signature",
                ip=arp.spa,
                mac=arp.sha,
                message=f"{host.name}: {why}",
                dedup_window=60.0,
            )
        return False

    def _on_key(
        self, host: Host, state: _HostState, ip: Ipv4Address, key
    ) -> None:
        stashed = state.stashed.pop(ip, [])
        if key is None:
            if self.alert_on_invalid and stashed:
                self.raise_alert(
                    time=host.sim.now,
                    severity=Severity.INFO,
                    kind="unknown-principal",
                    ip=ip,
                    message=f"{host.name}: AKD has no key for claimant",
                    dedup_window=60.0,
                )
            return
        for arp in stashed:
            binding = SignedBinding.decode(arp.extension.payload)  # vetted above
            if key.verify(
                SignedBinding.message_bytes(binding.ip, binding.mac, binding.timestamp),
                binding.signature,
            ):
                self.signatures_verified += 1
                host.accept_arp_binding(arp.spa, arp.sha, BindingSource.SARP)
                break
            self._reject(host, arp, "signature verification failed (post-lookup)")

    def state_size(self) -> int:
        total = 0
        if self.akd is not None:
            total += self.akd.registry_size  # enrollment table
        for state in self._states.values():
            total += len(state.client.cache)
        return total
