"""Pinned outputs of a fixed-seed campus churn cell.

A sha256 over every host's counters, every port's rx/tx frames and
bytes, every cable's carried frames and bytes, and the cell's event and
delivery totals.  The constants were computed before the host and link
receive paths were last optimized, so a receive-path change that
alters any device-visible output, on any engine, fails here.
"""

from __future__ import annotations

import hashlib

import pytest

import repro.core.scale as scale
import repro.sim.simulator as simulator
from repro.core.experiment import ScenarioConfig

#: batching -> sha256 of :func:`_outputs`.  The single event loop and
#: the one-partition sharded run share a pin: sharding moves no output.
PINNED = {
    True: "f732d552d461075e982a01bcc57c5ec19808b139e68c7fe38e464669ea28b437",
    False: "ecca2d665c6bc8a6f4abd32d9177cb58044c5699f360eb046a94d6cdd36b76b0",
}


def _outputs(monkeypatch, shards: int, batching: bool) -> str:
    monkeypatch.setattr(simulator, "DEFAULT_BATCHING", batching)
    built = []

    def kept_campus(*args, **kwargs):
        campus = campus_type(*args, **kwargs)
        built.append(campus)
        return campus

    campus_type = scale.Campus
    monkeypatch.setattr(scale, "Campus", kept_campus)
    result = scale._run_campus_churn(
        None,
        ScenarioConfig(seed=3),
        buildings=2,
        leaves_per_building=2,
        hosts_per_leaf=8,
        talkers=6,
        duration=0.6,
        shards=shards,
    )
    (campus,) = built
    cables = list(campus.links) + list(getattr(campus.fabric, "boundaries", ()))
    devices = [campus.hosts[n] for n in sorted(campus.hosts)] + [
        campus.switches[n] for n in sorted(campus.switches)
    ]
    outputs = (
        [(n, sorted(campus.hosts[n].counters.items())) for n in sorted(campus.hosts)],
        [
            (p.name, p.rx_frames, p.rx_bytes, p.tx_frames, p.tx_bytes)
            for device in devices
            for p in device.ports
        ],
        sorted((c.frames_carried, c.bytes_carried) for c in cables),
        result.events,
        result.deliveries,
    )
    assert result.events > 0 and any(c.frames_carried for c in cables)
    return hashlib.sha256(repr(outputs).encode()).hexdigest()


@pytest.mark.parametrize("batching", [True, False], ids=["batched", "per-frame"])
@pytest.mark.parametrize("shards", [0, 1])
def test_campus_outputs_are_pinned(monkeypatch, shards, batching):
    assert _outputs(monkeypatch, shards, batching) == PINNED[batching]
