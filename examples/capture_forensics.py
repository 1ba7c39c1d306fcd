#!/usr/bin/env python3
"""Incident response on a stored capture — detection after the fact.

A mirror-port monitor recorded everything while (a) legitimate DHCP
churn and (b) an ARP-poisoning MITM both happened.  Long after the
attacker logged off, the analyst replays the capture through the
paper's passive detectors (what ``repro analyze`` does): the hybrid
detector explains the benign rebinding by a DHCP lease it also saw in
the capture, while Snort's arpspoof rules and the reply-storm
heuristic point at the hostile one.

Run:  python examples/capture_forensics.py
"""

from __future__ import annotations

from repro import Lan, Simulator
from repro.attacks import MitmAttack
from repro.replay import MemorySource
from repro.replay.analyze import analyze
from repro.sim.trace import TraceRecorder
from repro.stack import DhcpClient, WINDOWS_XP


def main() -> None:
    sim = Simulator(seed=31337)
    lan = Lan(sim, network="10.0.3.0/24")
    monitor = lan.add_monitor()
    monitor.recorder = TraceRecorder()  # capture what the mirror port sees
    lan.enable_dhcp(pool_start=100, pool_end=100)  # one-address pool
    victim = lan.add_host("victim", profile=WINDOWS_XP)
    mallory = lan.add_host("mallory")

    # --- benign churn: a phone joins, leaves, and its IP is reused -----
    phone = lan.add_dhcp_host("phone")
    lease1 = DhcpClient(phone)
    lease1.start()
    sim.run(until=10.0)
    lease1.release()
    phone.nic.shut()
    tablet = lan.add_dhcp_host("tablet")
    DhcpClient(tablet).start()
    sim.run(until=20.0)

    # --- the attack: 30 seconds of MITM against the victim -------------
    victim.ping(lan.gateway.ip)
    sim.run(until=25.0)
    mitm = MitmAttack(mallory, victim, lan.gateway)
    mitm.start()
    cancel = sim.call_every(0.5, lambda: victim.ping(lan.gateway.ip))
    sim.run(until=55.0)
    mitm.stop()
    cancel()
    sim.run(until=60.0)

    capture = monitor.recorder.records
    print(f"capture: {len(capture)} frames over {sim.now:.0f}s of simulated time")
    print()

    report = analyze(
        MemorySource.from_records(capture),
        inventory={victim.ip: victim.mac, lan.gateway.ip: lan.gateway.mac},
        storm_threshold=8,
    )
    print(report.render())
    print()

    benign = report.dhcp_explained
    hostile = report.of("arpspoof-mapping-violation")
    storms = report.of("arp-reply-storm")
    assert benign, "the phone->tablet IP reuse should be DHCP-explained"
    assert hostile and all(a.mac == mallory.mac for a in hostile)
    assert storms, "the re-poisoning loop should register as a reply storm"
    print(
        f"verdict: {benign} rebinding(s) explained by DHCP; "
        f"{len(hostile)} binding violation(s) and {len(storms)} reply storm(s) "
        f"all pointing at {mallory.mac} (mallory)"
    )


if __name__ == "__main__":
    main()
