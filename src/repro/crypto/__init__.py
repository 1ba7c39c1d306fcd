"""Crypto substrate for S-ARP / TARP: RSA keys, signed bindings, AKD, LTA."""

from repro.crypto.akd import AKD_PORT, AkdClient, AkdService
from repro.crypto.keys import KeyPair, PrivateKey, PublicKey, generate_keypair, keychain
from repro.crypto.lta import LocalTicketAgent, Ticket
from repro.crypto.sign import CryptoCostModel, SignedBinding

__all__ = [
    "AKD_PORT",
    "AkdClient",
    "AkdService",
    "KeyPair",
    "PrivateKey",
    "PublicKey",
    "generate_keypair",
    "keychain",
    "LocalTicketAgent",
    "Ticket",
    "CryptoCostModel",
    "SignedBinding",
]
