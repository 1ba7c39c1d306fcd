"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.l2.topology import Lan
from repro.sim.simulator import Simulator
from repro.stack.os_profiles import WINDOWS_XP

#: The CI ``codec-fuzz`` job runs ``tests/test_codec_fuzz.py`` with
#: ``--hypothesis-profile codec-fuzz``: twenty times the examples tier-1
#: runs at hypothesis' default size.
settings.register_profile(
    "codec-fuzz",
    max_examples=20 * settings.default.max_examples,
    deadline=None,
)


@pytest.fixture
def sim() -> Simulator:
    return Simulator(seed=42)


@pytest.fixture
def lan(sim: Simulator) -> Lan:
    return Lan(sim)


@pytest.fixture
def small_lan(sim: Simulator):
    """A LAN with a monitor, two users (victim runs an XP-like stack,
    the easiest poisoning target) and an attacker host."""
    lan = Lan(sim)
    lan.add_monitor()
    victim = lan.add_host("victim", profile=WINDOWS_XP)
    peer = lan.add_host("peer")
    mallory = lan.add_host("mallory")
    return lan, victim, peer, mallory


def drain(sim: Simulator, until: float) -> None:
    sim.run(until=until)
