"""Every scheme's outputs pinned on each execution mode.

One fixed-seed MITM per registry scheme, per stack in :data:`STACKS` and
for the undefended baseline, crossed with every poisoning technique,
on a clean LAN and under light loss and jitter.  Each run is digested
from what a scheme's deployment would report: its alerts with their
times, every host's final ARP cache, every switch's CAM table and the
``result.to_dict()`` of the Table 2 cell.  Three modes run it:

* ``batched`` — the default simulator, coalescing same-instant arrivals;
* ``per-frame`` — ``batching=False``, one event per delivery;
* ``traced`` — ``TRACER`` on, which also pins every alert's frame
  provenance id and the origin that id resolves to.

The digests in ``mode_pins.json`` were recorded from the program before
its receive paths were folded into one entry per device, so a refactor
of a receive point (switch filters, the SDN agent, VLANs, host taps,
tracing) that changes any output on any mode fails here.  Where two
modes already disagreed when the pins were taken, each keeps its own
digest: the pins check each mode against itself, not against the
others.

Tier-1 runs the ``quick`` size.  The ``paper`` size (the testbed's
default :class:`ScenarioConfig`, Table 2's) is marked ``paper_size``
and runs only when selected, as CI's ``mode-pins`` job does::

    python -m pytest tests/test_mode_pins.py -m paper_size

``python tests/test_mode_pins.py`` prints the table recomputed by the
program as it stands; copy it over ``mode_pins.json`` only for a change
meant to move these outputs, and say why in ``CHANGES.md``.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, Optional

import pytest

import repro.core.experiment as experiment
import repro.sim.simulator as simulator
from repro.attacks.arp_poison import POISON_TECHNIQUES
from repro.core.api import run
from repro.core.experiment import ScenarioConfig
from repro.obs.trace import TRACER
from repro.schemes.registry import SCHEME_FACTORIES

#: Stacks that put two receive points on one frame's path: switch and
#: monitor, two switch filters, two monitors, two host guards,
#: controller and monitor, host crypto and monitor.
STACKS = (
    "dai+arpwatch",
    "port-security+dai",
    "hybrid+snort-arpspoof",
    "antidote+middleware",
    "sdn-arp-guard+arpwatch",
    "s-arp+arpwatch",
)
SPECS = (None,) + tuple(SCHEME_FACTORIES) + STACKS
FAULTS = (None, "loss=0.01,jitter=1ms")
MODES = ("batched", "per-frame", "traced")
SIZES = {
    "quick": dict(seed=3, n_hosts=3, warmup=1.0, attack_duration=4.0, cooldown=1.0),
    "paper": dict(),
}

PINS_PATH = Path(__file__).with_name("mode_pins.json")


def _key(size: str, spec: Optional[str], technique: str, faults: Optional[str]) -> str:
    return f"{size} {spec or 'none'} {technique} {faults or 'clean'}"


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def outputs(
    size: str, spec: Optional[str], technique: str, faults: Optional[str], mode: str
) -> str:
    """Digest of one effectiveness run on ``mode``."""
    built = []

    class Recording(experiment.Scenario):
        def __init__(self, config):
            super().__init__(config)
            built.append(self)

    saved = experiment.Scenario, simulator.DEFAULT_BATCHING
    experiment.Scenario = Recording
    simulator.DEFAULT_BATCHING = mode != "per-frame"
    if mode == "traced":
        TRACER.reset()
        TRACER.enable()
    try:
        config = ScenarioConfig(fault_spec=faults, **SIZES[size])
        result = run("effectiveness", config, scheme=spec, technique=technique)
        (scenario,) = built
        scheme = scenario.scheme
        origin_of = TRACER.provenance.origin_of
        alerts = [
            (
                a.time, a.scheme, a.severity, a.kind, str(a.ip), str(a.mac),
                a.message, a.frame_id,
                origin_of(a.frame_id) if a.frame_id is not None else None,
            )
            for a in (scheme.alerts if scheme is not None else ())
        ]
    finally:
        experiment.Scenario, simulator.DEFAULT_BATCHING = saved
        TRACER.disable()
        TRACER.reset()
    lan = scenario.lan
    caches = {
        name: sorted(
            (str(e.ip), str(e.mac), e.expires_at, e.source, e.static, e.updated_at)
            for e in host.arp_cache
        )
        for name, host in lan.hosts.items()
    }
    cams = {
        name: sorted(
            (str(e.mac), e.port_index, e.learned_at, e.expires_at, e.static)
            for e in switch.cam
        )
        for name, switch in lan.switches.items()
    }
    return _digest(
        {"result": result.to_dict(), "alerts": alerts, "caches": caches, "cams": cams}
    )


def _cases(size: str):
    marks = (pytest.mark.paper_size,) if size == "paper" else ()
    return [
        pytest.param(size, spec, technique, faults, marks=marks,
                     id=_key(size, spec, technique, faults).replace(" ", "-"))
        for spec in SPECS
        for technique in POISON_TECHNIQUES
        for faults in FAULTS
    ]


@pytest.fixture(scope="module")
def pins() -> Dict[str, Dict[str, str]]:
    return json.loads(PINS_PATH.read_text())


@pytest.mark.parametrize("size,spec,technique,faults", _cases("quick") + _cases("paper"))
def test_outputs_hold_on_every_mode(pins, size, spec, technique, faults):
    key = _key(size, spec, technique, faults)
    got = {mode: outputs(size, spec, technique, faults, mode) for mode in MODES}
    assert got == pins[key]


def test_pins_cover_the_whole_matrix(pins):
    """The table holds one entry per case, so a scheme added to the
    registry without pins fails here rather than running unchecked."""
    keys = {
        _key(size, spec, technique, faults)
        for size in SIZES
        for spec in SPECS
        for technique in POISON_TECHNIQUES
        for faults in FAULTS
    }
    assert set(pins) == keys


if __name__ == "__main__":
    table = {
        _key(size, spec, technique, faults): {
            mode: outputs(size, spec, technique, faults, mode) for mode in MODES
        }
        for size in SIZES
        for spec in SPECS
        for technique in POISON_TECHNIQUES
        for faults in FAULTS
    }
    json.dump(table, sys.stdout, indent=1, sort_keys=True)
    print()
