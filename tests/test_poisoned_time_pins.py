"""The poisoned-time outputs pinned as values.

Table 2's ``victim_poisoned_seconds`` and ``prevented`` for every
registry scheme and the undefended baseline, crossed with every
poisoning technique, at ``tests/test_mode_pins.py``'s quick size, with
the two verdicts ``prevented`` folds together: did the victim ever bind
the gateway's IP to a wrong MAC after the attack began, and did the
gateway ever bind the victim's.  The test observes those two through
``ArpCache.on_change`` listeners of its own, subscribed as the MITM
starts.

``controller-failover``'s ``poisoned_during_flap`` and
``poisoned_outside_flap`` are pinned for the SDN guard alone and stacked
with every other registry scheme, in both fail modes, on two fault
specs: one flap inside the attack, and two flaps, the first opening
before the attack starts and the second closing after the poisoning
stops.

The values in ``poisoned_time_pins.json`` were recorded from the
program while the metrics were still computed from a per-cache change
log; ``python tests/test_poisoned_time_pins.py`` prints the table the
program computes now.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, Optional

import pytest

import repro.core.experiment as experiment
from repro.attacks.arp_poison import POISON_TECHNIQUES
from repro.core.api import run
from repro.core.experiment import ScenarioConfig
from repro.schemes.registry import SCHEME_FACTORIES

PINS_PATH = Path(__file__).with_name("poisoned_time_pins.json")

QUICK = dict(seed=3, n_hosts=3, warmup=1.0, attack_duration=4.0, cooldown=1.0)
EFFECTIVENESS_SPECS = (None,) + tuple(SCHEME_FACTORIES)

FAILOVER_SPECS = tuple(
    key if key == "sdn-arp-guard" else f"sdn-arp-guard+{key}" for key in SCHEME_FACTORIES
)
FAIL_MODES = ("open", "closed")
FLAPS = ("flap=ctrl@t2-3", "flap=ctrl@t0.5-1.5,flap=ctrl@t4-5.5")


def effectiveness(spec: Optional[str], technique: str) -> Dict[str, object]:
    """One quick Table 2 cell's poisoned-time outputs."""
    verdicts = {}

    class Recording(experiment.MitmAttack):
        def _start(self) -> None:
            for name, host, other in (
                ("victim_bad", self.victim_a, self.victim_b),
                ("gateway_bad", self.victim_b, self.victim_a),
            ):
                verdicts[name] = False

                def listener(change, name=name, ip=other.ip, mac=other.mac):
                    if change.ip == ip and change.new_mac != mac:
                        verdicts[name] = True

                host.arp_cache.on_change(listener)
            super()._start()

    saved = experiment.MitmAttack
    experiment.MitmAttack = Recording
    try:
        result = run(
            "effectiveness", ScenarioConfig(**QUICK), scheme=spec, technique=technique
        )
    finally:
        experiment.MitmAttack = saved
    return {
        "victim_poisoned_seconds": result.victim_poisoned_seconds,
        "prevented": result.prevented,
        **verdicts,
    }


def failover(spec: str, fail_mode: str, flaps: str) -> Dict[str, float]:
    """One small controller-failover cell's poisoned-time outputs."""
    config = ScenarioConfig(
        seed=3, n_hosts=3, attack_duration=4.0, cooldown=1.0, fault_spec=flaps
    )
    result = run("controller-failover", config, scheme=spec, fail_mode=fail_mode)
    return {
        "poisoned_during_flap": result.poisoned_during_flap,
        "poisoned_outside_flap": result.poisoned_outside_flap,
    }


def _effectiveness_key(spec: Optional[str], technique: str) -> str:
    return f"effectiveness {spec or 'none'} {technique}"


def _failover_key(spec: str, fail_mode: str, flaps: str) -> str:
    return f"controller-failover {spec} {fail_mode} {flaps}"


def _table():
    table = {
        _effectiveness_key(spec, technique): effectiveness(spec, technique)
        for spec in EFFECTIVENESS_SPECS
        for technique in POISON_TECHNIQUES
    }
    table.update(
        (_failover_key(spec, mode, flaps), failover(spec, mode, flaps))
        for spec in FAILOVER_SPECS
        for mode in FAIL_MODES
        for flaps in FLAPS
    )
    return table


@pytest.fixture(scope="module")
def pins():
    return json.loads(PINS_PATH.read_text())


@pytest.mark.parametrize("technique", POISON_TECHNIQUES)
@pytest.mark.parametrize("spec", EFFECTIVENESS_SPECS)
def test_effectiveness_poisoned_time_holds(pins, spec, technique):
    got = effectiveness(spec, technique)
    assert got == pins[_effectiveness_key(spec, technique)]
    assert got["prevented"] == (not (got["victim_bad"] or got["gateway_bad"]))


@pytest.mark.parametrize("flaps", FLAPS)
@pytest.mark.parametrize("fail_mode", FAIL_MODES)
@pytest.mark.parametrize("spec", FAILOVER_SPECS)
def test_failover_poisoned_time_holds(pins, spec, fail_mode, flaps):
    assert failover(spec, fail_mode, flaps) == pins[_failover_key(spec, fail_mode, flaps)]


def test_pins_cover_every_case_and_some_poisoning(pins):
    """One entry per case, and the table is not all zeros: some cells
    were poisoned, some prevented, one poisoned only the victim, and the
    open guard lost time both in and outside a flap."""
    keys = {_effectiveness_key(s, t) for s in EFFECTIVENESS_SPECS for t in POISON_TECHNIQUES}
    keys |= {
        _failover_key(s, m, f) for s in FAILOVER_SPECS for m in FAIL_MODES for f in FLAPS
    }
    assert set(pins) == keys
    cells = [v for k, v in pins.items() if k.startswith("effectiveness ")]
    assert any(v["victim_poisoned_seconds"] > 0 for v in cells)
    assert any(v["prevented"] for v in cells) and not all(v["prevented"] for v in cells)
    assert any(v["victim_bad"] != v["gateway_bad"] for v in cells)
    flapped = [v for k, v in pins.items() if k.startswith("controller-failover ")]
    assert any(v["poisoned_during_flap"] > 0 for v in flapped)
    assert any(v["poisoned_outside_flap"] > 0 for v in flapped)


if __name__ == "__main__":
    json.dump(_table(), sys.stdout, indent=1, sort_keys=True)
    print()
