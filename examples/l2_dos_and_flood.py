#!/usr/bin/env python3
"""Two layer-2 attacks no experiment kind measures: blackhole DoS and MAC flood.

A blackhole DoS poisons the victim's entry for the gateway with a MAC
that goes nowhere, so the victim's pings die; static ARP entries pin the
true binding and the pings survive.  A MAC flood fills the switch's CAM
table with forged source addresses until the switch fails open and
floods every frame like a hub; port security caps the addresses a port
may teach the switch, and the table holds.

Run:  python examples/l2_dos_and_flood.py
"""

from __future__ import annotations

from typing import Optional

from repro.attacks import BlackholeDos, MacFlood
from repro.core.experiment import Scenario, ScenarioConfig
from repro.schemes import make_defense

SEED = 7


def _scenario(scheme: Optional[str]) -> Scenario:
    """The standard testbed, with ``scheme`` installed (if any)."""
    scenario = Scenario(ScenarioConfig(seed=SEED))
    if scheme is not None:
        make_defense(scheme).install(
            lan=scenario.lan, protected=scenario.protected_hosts()
        )
    return scenario


def blackhole_dos(scheme: Optional[str], duration: float = 10.0) -> bool:
    """Does the victim keep reaching its gateway under a blackhole DoS?"""
    scenario = _scenario(scheme)
    scenario.warm_caches()
    replies = []
    cancel = scenario.sim.call_every(
        0.5,
        lambda: scenario.victim.ping(
            scenario.gateway.ip, on_reply=lambda seq, rtt: replies.append(seq)
        ),
    )
    dos = BlackholeDos(
        scenario.attacker, [scenario.victim], target_ip=scenario.gateway.ip
    )
    dos.start()
    scenario.sim.run(until=scenario.sim.now + duration)
    dos.stop()
    cancel()
    expected = int(duration / 0.5)
    survived = len(replies) >= expected / 2
    print(f"blackhole DoS, scheme={scheme or 'none'}: victim got "
          f"{len(replies)}/{expected} gateway replies "
          f"({'service survived' if survived else 'service denied'})")
    return survived


def mac_flood(scheme: Optional[str], duration: float = 3.0) -> bool:
    """Does the switch fail open under a MAC flood?"""
    scenario = _scenario(scheme)
    flood = MacFlood(scenario.attacker)
    flood.start()
    scenario.sim.run(until=scenario.sim.now + duration)
    flood.stop()
    switch = scenario.lan.switch
    fail_open = switch.is_fail_open()
    print(f"MAC flood, scheme={scheme or 'none'}: {flood.frames_sent} frames, "
          f"CAM {len(switch.cam)}/{switch.cam.capacity} "
          f"({'FAIL-OPEN' if fail_open else 'holding'})")
    return fail_open


def main() -> None:
    assert not blackhole_dos(None), "an undefended victim should lose its gateway"
    assert blackhole_dos("static-arp"), "static ARP should keep the gateway reachable"
    assert mac_flood(None), "an unprotected switch should fail open"
    assert not mac_flood("port-security"), "port security should hold the CAM"


if __name__ == "__main__":
    main()
