"""Key pairs for the cryptographic ARP schemes (S-ARP, TARP).

This is a real, self-contained RSA implementation with deliberately small
moduli (default 512 bits).  The point is *structural* fidelity, not
cryptographic strength: signing genuinely requires the private exponent,
verification genuinely needs only ``(n, e)``, and public keys serialize to
bytes so they can travel in simulated packets.  Production deployments of
S-ARP used DSA via OpenSSL; the substitution keeps the property the
analysis depends on (unforgeability inside the simulation) while staying
dependency-free.  Timing is charged separately through the cost model in
:mod:`repro.crypto.sign`, not measured from these operations.

Signing uses the Chinese Remainder Theorem (two half-size modexps and
Garner's recombination), which yields the same integer as the textbook
``pow(m, d, n)``.  :func:`keychain` memoizes the key pairs a labelled
random stream produces, so every run that draws from the same stream
(the same seed and scheme) reuses them instead of searching for primes
again.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Iterator, List, Tuple

from repro.errors import CryptoError

__all__ = ["PublicKey", "PrivateKey", "KeyPair", "generate_keypair", "keychain"]

_E = 65537


def _is_probable_prime(n: int, rng: random.Random, rounds: int = 24) -> bool:
    """Miller-Rabin primality test."""
    if n < 2:
        return False
    small_primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for p in small_primes:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(rounds):
        a = rng.randrange(2, n - 1)
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True


def _random_prime(bits: int, rng: random.Random) -> int:
    while True:
        candidate = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if candidate % _E == 1:
            continue  # keep e invertible mod (p-1)
        if _is_probable_prime(candidate, rng):
            return candidate


def _digest_int(message: bytes, modulus: int) -> int:
    return int.from_bytes(hashlib.sha256(message).digest(), "big") % modulus


@dataclass(frozen=True)
class PublicKey:
    """An RSA verification key ``(n, e)``."""

    n: int
    e: int

    def verify(self, message: bytes, signature: bytes) -> bool:
        """True iff ``signature`` is valid for ``message`` under this key."""
        try:
            sig_int = int.from_bytes(signature, "big")
        except (TypeError, ValueError):
            return False
        if not 0 < sig_int < self.n:
            return False
        return pow(sig_int, self.e, self.n) == _digest_int(message, self.n)

    # -- wire form -----------------------------------------------------
    def encode(self) -> bytes:
        n_bytes = self.n.to_bytes((self.n.bit_length() + 7) // 8, "big")
        e_bytes = self.e.to_bytes(4, "big")
        return len(n_bytes).to_bytes(2, "big") + n_bytes + e_bytes

    @classmethod
    def decode(cls, data: bytes) -> "PublicKey":
        if len(data) < 2:
            raise CryptoError("public key blob too short")
        n_len = int.from_bytes(data[:2], "big")
        if len(data) < 2 + n_len + 4:
            raise CryptoError("public key blob truncated")
        n = int.from_bytes(data[2 : 2 + n_len], "big")
        e = int.from_bytes(data[2 + n_len : 2 + n_len + 4], "big")
        if n <= 0 or e <= 0:
            raise CryptoError("public key blob malformed")
        return cls(n=n, e=e)

    @property
    def fingerprint(self) -> str:
        """Short identifier used in logs and alerts."""
        return hashlib.sha256(self.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class PrivateKey:
    """An RSA signing key.  Never serialized; never leaves its owner.

    Besides ``d`` it keeps the factors and CRT exponents; none of the
    secret fields appear in ``repr`` (a logged key must not leak them).
    """

    n: int
    d: int = field(repr=False)
    p: int = field(repr=False)
    q: int = field(repr=False)
    dp: int = field(repr=False)  # d mod (p - 1)
    dq: int = field(repr=False)  # d mod (q - 1)
    qinv: int = field(repr=False)  # q^-1 mod p

    def sign(self, message: bytes) -> bytes:
        m = _digest_int(message, self.n)
        s_q = pow(m, self.dq, self.q)
        h = self.qinv * (pow(m, self.dp, self.p) - s_q) % self.p
        sig_int = s_q + h * self.q  # == pow(m, d, n)
        return sig_int.to_bytes((self.n.bit_length() + 7) // 8, "big")


@dataclass(frozen=True)
class KeyPair:
    """A matched public/private key pair."""

    public: PublicKey
    private: PrivateKey


def generate_keypair(rng: random.Random, bits: int = 512) -> KeyPair:
    """Generate an RSA key pair with a ``bits``-bit modulus.

    Deterministic given the ``rng`` state, so experiments are repeatable.
    """
    if bits < 128:
        raise CryptoError(f"modulus of {bits} bits is too small even for a toy")
    half = bits // 2
    while True:
        p = _random_prime(half, rng)
        q = _random_prime(bits - half, rng)
        if p == q:
            continue
        n = p * q
        phi = (p - 1) * (q - 1)
        try:
            d = pow(_E, -1, phi)
        except ValueError:
            continue
        private = PrivateKey(
            n=n, d=d, p=p, q=q, dp=d % (p - 1), dq=d % (q - 1), qinv=pow(q, -1, p)
        )
        return KeyPair(public=PublicKey(n=n, e=_E), private=private)


#: Schedules kept at most; the oldest is dropped first.
KEYCHAIN_CAP = 64

#: ``(label, bits) -> (pairs drawn so far, the stream that continues them)``.
_KEYCHAINS: "OrderedDict[Tuple[str, int], Tuple[List[KeyPair], random.Random]]" = (
    OrderedDict()
)


def keychain(label: str, bits: int = 512) -> Iterator[KeyPair]:
    """Yield the key pairs of the random stream seeded with ``label``.

    The sequence is exactly what repeated ``generate_keypair(random.Random
    (label), bits)`` calls on one stream produce.  Pairs drawn once are
    memoized per ``(label, bits)`` and the prefix grows on demand, so a
    second run with the same seed pays for no prime search.
    """
    schedule = _KEYCHAINS.get((label, bits))
    if schedule is None:
        if len(_KEYCHAINS) >= KEYCHAIN_CAP:
            _KEYCHAINS.popitem(last=False)
        schedule = _KEYCHAINS[(label, bits)] = ([], random.Random(label))
    pairs, rng = schedule
    for i in itertools.count():
        if i == len(pairs):
            pairs.append(generate_keypair(rng, bits))
        yield pairs[i]
