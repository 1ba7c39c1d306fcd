#!/usr/bin/env python3
"""Eavesdropping on a 'login' session — the paper's motivating attack.

A user posts credentials to a web service behind the gateway over
plaintext UDP (standing in for pre-TLS HTTP).  Mallory ARP-poisons the
user and the gateway, relays the session so nothing looks broken, and
harvests the payloads in transit.  The script then replays the exact
same scenario with S-ARP installed and shows the harvest is empty.

Run:  python examples/mitm_eavesdropping.py
"""

from __future__ import annotations

from typing import List, Optional

from repro import Ipv4Address, Lan, Simulator
from repro.attacks import MitmAttack
from repro.packets.ipv4 import IpProto
from repro.packets.udp import UdpDatagram
from repro.schemes import make_scheme
from repro.stack import WINDOWS_XP

WEB_SERVER = Ipv4Address("93.184.216.34")
SECRET = b"POST /login user=alice&password=hunter2"


def run_session(with_scheme: Optional[str]) -> tuple[int, List[bytes], int]:
    """Returns (requests sent, payloads harvested, responses received)."""
    sim = Simulator(seed=7)
    lan = Lan(sim)
    lan.add_monitor()
    alice = lan.add_host("alice", profile=WINDOWS_XP)
    mallory = lan.add_host("mallory")

    scheme = None
    if with_scheme is not None:
        scheme = make_scheme(with_scheme)
        scheme.install(lan, protected=[alice, lan.gateway, lan.monitor])

    # Alice already talks to her gateway before the attacker shows up.
    alice.ping(lan.gateway.ip)
    sim.run(until=5.0)

    # Mallory interposes and sniffs every relayed datagram.
    harvest: List[bytes] = []

    def sniff(packet):
        if packet.proto == IpProto.UDP:
            datagram = UdpDatagram.decode(packet.payload)
            if SECRET in datagram.payload:
                harvest.append(datagram.payload)
        return None

    mitm = MitmAttack(mallory, alice, lan.gateway)
    mallory.forward_taps.add(sniff)
    mitm.start()
    sim.run(until=8.0)

    # Alice logs in to the web service, with retries, like a browser would.
    responses = []
    alice.udp_bind(40000, lambda host, src, dg: responses.append(dg.payload))
    sent = 0
    for i in range(10):
        sim.schedule(0.5 * i, lambda: alice.send_udp(WEB_SERVER, 40000, 80, SECRET))
        sent += 1
    sim.run(until=20.0)
    mitm.stop()
    return sent, harvest, len(responses)


def main() -> None:
    sent, harvest, responses = run_session(with_scheme=None)
    print("=== undefended LAN ===")
    print(f"login requests sent:       {sent}")
    print(f"responses received:        {responses}  (the session works fine!)")
    print(f"credentials harvested:     {len(harvest)}")
    if harvest:
        print(f"first captured payload:    {harvest[0].decode()!r}")
    assert harvest, "the MITM should capture the plaintext credentials"

    sent, harvest, responses = run_session(with_scheme="s-arp")
    print()
    print("=== same LAN, S-ARP deployed ===")
    print(f"login requests sent:       {sent}")
    print(f"responses received:        {responses}")
    print(f"credentials harvested:     {len(harvest)}  (mallory saw nothing)")
    assert not harvest, "S-ARP should have kept mallory out of the path"


if __name__ == "__main__":
    main()
