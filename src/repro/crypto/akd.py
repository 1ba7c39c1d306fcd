"""The Authoritative Key Distributor (AKD) that S-ARP relies on.

S-ARP assumes a trusted LAN service that knows every host's public key
and answers "what is the key for IP x?" queries, itself authenticated by
a master key distributed out of band.  We implement the AKD as a real
simulated service: a UDP responder on the AKD host plus a client-side
resolver with caching, so the key-management traffic S-ARP adds is
visible in the overhead measurements (Figure 2).

Wire format (UDP port 5500):
  query:    b"AKDQ" + ip(4)
  response: b"AKDR" + ip(4) + len(2) + pubkey-blob + len(2) + akd-signature
The signature covers ``ip + pubkey-blob`` and is made with the AKD's own
private key, whose public half every enrolled host holds a priori.
"""

from __future__ import annotations

import struct
from typing import Callable, Dict, List, Optional

from repro.errors import CryptoError, KeyRegistrationError
from repro.net.addresses import Ipv4Address
from repro.crypto.keys import KeyPair, PublicKey
from repro.packets.udp import UdpDatagram
from repro.stack.host import Host

__all__ = ["AkdService", "AkdClient", "AKD_PORT"]

AKD_PORT = 5500
_QUERY = b"AKDQ"
_RESPONSE = b"AKDR"


class AkdService:
    """The server side: an enrollment registry plus the UDP responder."""

    def __init__(self, host: Host, keypair: KeyPair) -> None:
        if host.ip is None:
            raise KeyRegistrationError("AKD host needs a static IP")
        self.host = host
        self.keypair = keypair
        self._registry: Dict[Ipv4Address, PublicKey] = {}
        #: Signed response per enrolled IP.  A response is a pure function
        #: of the registry entry, so each is signed once and dropped when
        #: the entry changes (:meth:`enroll`, :meth:`revoke`).
        self._responses: Dict[Ipv4Address, bytes] = {}
        self.queries_served = 0
        self.unknown_queries = 0
        host.udp_bind(AKD_PORT, self._on_udp)

    @property
    def public_key(self) -> PublicKey:
        return self.keypair.public

    def enroll(self, ip: Ipv4Address, key: PublicKey) -> None:
        """Register a host's key (done at deployment time, out of band)."""
        existing = self._registry.get(ip)
        if existing is not None and existing != key:
            raise KeyRegistrationError(
                f"{ip} already enrolled with a different key"
            )
        self._registry[ip] = key
        self._responses.pop(ip, None)

    def revoke(self, ip: Ipv4Address) -> None:
        self._registry.pop(ip, None)
        self._responses.pop(ip, None)

    def knows(self, ip: Ipv4Address) -> bool:
        return ip in self._registry

    @property
    def registry_size(self) -> int:
        return len(self._registry)

    def _on_udp(self, host: Host, src_ip: Ipv4Address, datagram: UdpDatagram) -> None:
        payload = datagram.payload
        if len(payload) < 8 or payload[:4] != _QUERY:
            return
        ip = Ipv4Address(payload[4:8])
        key = self._registry.get(ip)
        if key is None:
            self.unknown_queries += 1
            return
        self.queries_served += 1
        response = self._responses.get(ip)
        if response is None:
            blob = key.encode()
            signature = self.keypair.private.sign(ip.packed + blob)
            response = self._responses[ip] = (
                _RESPONSE
                + ip.packed
                + struct.pack("!H", len(blob))
                + blob
                + struct.pack("!H", len(signature))
                + signature
            )
        host.send_udp(src_ip, AKD_PORT, datagram.src_port, response)


class AkdClient:
    """The client side: query-with-callback plus a verified key cache."""

    def __init__(
        self,
        host: Host,
        akd_ip: Ipv4Address,
        akd_public_key: PublicKey,
        timeout: float = 0.5,
    ) -> None:
        self.host = host
        self.akd_ip = akd_ip
        self.akd_public_key = akd_public_key
        self.timeout = timeout
        self.cache: Dict[Ipv4Address, PublicKey] = {}
        self._pending: Dict[Ipv4Address, List[Callable[[Optional[PublicKey]], None]]] = {}
        self._port = host.ephemeral_port()
        self.queries_sent = 0
        self.bad_responses = 0
        host.udp_bind(self._port, self._on_udp)

    def lookup(
        self, ip: Ipv4Address, callback: Callable[[Optional[PublicKey]], None]
    ) -> None:
        """Fetch the public key for ``ip`` (cached, or over the wire)."""
        cached = self.cache.get(ip)
        if cached is not None:
            callback(cached)
            return
        waiters = self._pending.get(ip)
        if waiters is not None:
            waiters.append(callback)
            return
        self._pending[ip] = [callback]
        self.queries_sent += 1
        self.host.send_udp(self.akd_ip, self._port, AKD_PORT, _QUERY + ip.packed)

        def on_timeout() -> None:
            callbacks = self._pending.pop(ip, None)
            if callbacks is None:
                return
            for cb in callbacks:
                cb(None)

        self.host.sim.schedule(self.timeout, on_timeout, name="akd.timeout")

    def _on_udp(self, host: Host, src_ip: Ipv4Address, datagram: UdpDatagram) -> None:
        payload = datagram.payload
        if len(payload) < 10 or payload[:4] != _RESPONSE:
            return
        ip = Ipv4Address(payload[4:8])
        (blob_len,) = struct.unpack("!H", payload[8:10])
        if len(payload) < 10 + blob_len + 2:
            self.bad_responses += 1
            return
        blob = payload[10 : 10 + blob_len]
        (sig_len,) = struct.unpack("!H", payload[10 + blob_len : 12 + blob_len])
        signature = payload[12 + blob_len : 12 + blob_len + sig_len]
        if not self.akd_public_key.verify(ip.packed + blob, signature):
            self.bad_responses += 1
            return  # forged AKD response; ignore
        try:
            key = PublicKey.decode(blob)
        except CryptoError:
            self.bad_responses += 1
            return
        self.cache[ip] = key
        callbacks = self._pending.pop(ip, [])
        for cb in callbacks:
            cb(key)
