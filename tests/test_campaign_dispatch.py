"""Characterization of how a campaign task becomes a runner call.

Every campaign task ends in one ``api.run`` call.  These tests pin that
call for every experiment kind — the scheme, each parameter with its
Python type, and the scenario config the runner receives — plus the
``CampaignTask.key()`` of each kind's default spec, which feeds the
derived seeds and the result-cache keys.  Any change to how tasks are
resolved must keep every row here unchanged.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.campaign.spec import CampaignSpec, execute_task
from repro.core import api
from repro.core.experiment import ScenarioConfig
from repro.errors import CampaignError

#: kind -> (scheme, runner params for the ``{}`` variant, the runner
#: config's fields that differ from ``ScenarioConfig()``, seed aside).
BASELINE = {
    "effectiveness": ("arpwatch", {"technique": "reply"}, {}),
    "false-positives": ("arpwatch", {"duration": 600.0}, {}),
    "detection-latency": ("arpwatch", {"poison_rate": 1.0}, {}),
    "overhead": (
        "arpwatch",
        {"n_hosts": 8, "resolutions_per_host": 4},
        {"victim_profile": "linux"},
    ),
    "resolution-latency": (
        "arpwatch",
        {"n_resolutions": 20},
        {"n_hosts": 4, "victim_profile": "linux"},
    ),
    "interception-timeline": (
        "arpwatch",
        {"duration": 120.0, "attack_at": 30.0, "ping_rate": 2.0,
         "bin_seconds": 10.0},
        {},
    ),
    "footprint": (
        "arpwatch", {"n_hosts": 8, "settle": 30.0}, {"victim_profile": "linux"}
    ),
    "controller-failover": (
        "sdn-arp-guard", {"fail_mode": "open", "poison_interval": 0.5}, {}
    ),
    "dhcp-starvation": (
        "arpwatch", {"duration": 30.0, "rate_per_second": 30.0}, {}
    ),
    "campus-churn": (
        "arpwatch",
        {"buildings": 4, "leaves_per_building": 2, "hosts_per_leaf": 24,
         "talkers": None, "duration": 2.0, "shards": 0},
        {},
    ),
    "replay": (
        "arpwatch", {"source": "synthetic:", "window": 1024, "drain": 0.0}, {}
    ),
}

#: kind -> one param override (relative to BASELINE) per default variant.
DEFAULT_VARIANTS = {
    "controller-failover": [{}, {"fail_mode": "closed"}],
    "campus-churn": [{}, {"shards": 2}],
}

#: kind -> (variant key, value given, runner param, value the runner gets),
#: one row per campaign variant key, each run as a variant on its own.
ALONE = {
    "effectiveness": [("technique", "gratuitous", "technique", "gratuitous")],
    "false-positives": [("duration", 90, "duration", 90.0)],
    "detection-latency": [("poison_rate", "2.5", "poison_rate", 2.5)],
    "overhead": [
        ("n_hosts", "6", "n_hosts", 6),
        ("resolutions_per_host", 2, "resolutions_per_host", 2),
    ],
    "resolution-latency": [("n_resolutions", "5", "n_resolutions", 5)],
    "interception-timeline": [
        ("duration", 60, "duration", 60.0),
        ("attack_at", 10, "attack_at", 10.0),
        ("ping_rate", "1.5", "ping_rate", 1.5),
        ("bin_seconds", 5, "bin_seconds", 5.0),
    ],
    "footprint": [
        ("n_hosts", 6, "n_hosts", 6),
        ("settle", 10, "settle", 10.0),
    ],
    "controller-failover": [
        ("fail_mode", "closed", "fail_mode", "closed"),
        ("poison_interval", 1, "poison_interval", 1.0),
    ],
    "dhcp-starvation": [
        ("duration", 12, "duration", 12.0),
        ("rate_per_second", "15", "rate_per_second", 15.0),
    ],
    "campus-churn": [
        ("buildings", 2, "buildings", 2),
        ("leaves_per_building", 3, "leaves_per_building", 3),
        ("hosts_per_leaf", "10", "hosts_per_leaf", 10),
        ("talkers", "16", "talkers", 16),
        ("duration", 1, "duration", 1.0),
        ("shards", 2, "shards", 2),
    ],
    "replay": [
        ("trace", "synthetic:frames=1k", "source", "synthetic:frames=1k"),
        ("window", "64", "window", 64),
        ("drain", 1, "drain", 1.0),
    ],
}

#: kind -> CampaignTask.key() of every task of its default one-seed spec.
DEFAULT_KEYS = {
    "campus-churn": [
        '{"experiment":"campus-churn","scenario":{},"scheme":"arpwatch",'
        '"seed":1084297638,"trial":0,"variant":{"shards":0}}',
        '{"experiment":"campus-churn","scenario":{},"scheme":"arpwatch",'
        '"seed":1756451362,"trial":0,"variant":{"shards":2}}',
    ],
    "controller-failover": [
        '{"experiment":"controller-failover","scenario":{},'
        '"scheme":"sdn-arp-guard","seed":2113534143,"trial":0,'
        '"variant":{"fail_mode":"open"}}',
        '{"experiment":"controller-failover","scenario":{},'
        '"scheme":"sdn-arp-guard","seed":348417057,"trial":0,'
        '"variant":{"fail_mode":"closed"}}',
    ],
    "detection-latency": [
        '{"experiment":"detection-latency","scenario":{},"scheme":"arpwatch",'
        '"seed":1998385492,"trial":0,"variant":{"poison_rate":1.0}}',
    ],
    "dhcp-starvation": [
        '{"experiment":"dhcp-starvation","scenario":{},"scheme":"arpwatch",'
        '"seed":2038049641,"trial":0,"variant":{"duration":30.0}}',
    ],
    "effectiveness": [
        '{"experiment":"effectiveness","scenario":{},"scheme":"arpwatch",'
        '"seed":1309695270,"trial":0,"variant":{"technique":"reply"}}',
    ],
    "false-positives": [
        '{"experiment":"false-positives","scenario":{},"scheme":"arpwatch",'
        '"seed":1105917071,"trial":0,"variant":{"duration":600.0}}',
    ],
    "footprint": [
        '{"experiment":"footprint","scenario":{},"scheme":"arpwatch",'
        '"seed":1219238485,"trial":0,"variant":{"n_hosts":8}}',
    ],
    "interception-timeline": [
        '{"experiment":"interception-timeline","scenario":{},'
        '"scheme":"arpwatch","seed":2087558659,"trial":0,'
        '"variant":{"duration":120.0}}',
    ],
    "overhead": [
        '{"experiment":"overhead","scenario":{},"scheme":"arpwatch",'
        '"seed":435927694,"trial":0,"variant":{"n_hosts":8}}',
    ],
    "replay": [
        '{"experiment":"replay","scenario":{},"scheme":"arpwatch",'
        '"seed":771890522,"trial":0,"variant":{"trace":"synthetic:"}}',
    ],
    "resolution-latency": [
        '{"experiment":"resolution-latency","scenario":{},"scheme":"arpwatch",'
        '"seed":1030531117,"trial":0,"variant":{"n_resolutions":20}}',
    ],
}

#: Both DHCP runners set ``with_dhcp=True`` themselves before building
#: the Scenario (``_run_false_positives`` and ``_run_dhcp_starvation`` in
#: ``repro/core/experiment.py``: ``if not config.with_dhcp: config =
#: ScenarioConfig(..., with_dhcp=True)``), so whether the campaign layer
#: also sets it is not observable.  It is the one config field these
#: tests ignore, and only for these two kinds.
FORCED_BY_RUNNER = {
    "false-positives": {"with_dhcp"},
    "dhcp-starvation": {"with_dhcp"},
}

_DEFAULT_CONFIG = ScenarioConfig().to_dict()


class _Captured(Exception):
    """Raised by the stand-in runner, carrying what it was called with."""


def _capture(scheme, config=None, **params):
    raise _Captured(scheme, config, params)


def _typed(params):
    return {name: (type(value).__name__, value) for name, value in params.items()}


def _resolve(monkeypatch, kind, variants):
    """Each task's runner call under ``variants`` as (scheme, params, config)."""
    monkeypatch.setitem(
        api.KINDS, kind, dataclasses.replace(api.KINDS[kind], runner=_capture)
    )
    scheme = BASELINE[kind][0]
    spec = CampaignSpec(
        experiment=kind, schemes=(scheme,), variants=variants, seeds=1
    )
    calls = []
    for task in spec.tasks():
        with pytest.raises(_Captured) as caught:
            execute_task(task)
        got_scheme, config, params = caught.value.args
        fields = config.to_dict()
        assert fields.pop("seed") == task.seed
        ignored = FORCED_BY_RUNNER.get(kind, set())
        diff = {
            name: value
            for name, value in fields.items()
            if value != _DEFAULT_CONFIG[name] and name not in ignored
        }
        calls.append((got_scheme, _typed(params), diff))
    return calls


def _expected(kind, param_overrides, config_overrides=None):
    scheme, params, config = BASELINE[kind]
    return (
        scheme,
        _typed({**params, **param_overrides}),
        {**config, **(config_overrides or {})},
    )


KIND_NAMES = sorted(BASELINE)


def test_every_kind_is_characterized():
    assert set(BASELINE) == set(ALONE) == set(DEFAULT_KEYS) == set(api.KINDS)


@pytest.mark.parametrize("kind", KIND_NAMES)
def test_default_variants(monkeypatch, kind):
    overrides = DEFAULT_VARIANTS.get(kind, [{}])
    assert _resolve(monkeypatch, kind, ()) == [
        _expected(kind, o) for o in overrides
    ]


@pytest.mark.parametrize("kind", KIND_NAMES)
def test_empty_variant(monkeypatch, kind):
    assert _resolve(monkeypatch, kind, ({},)) == [_expected(kind, {})]


@pytest.mark.parametrize("kind", KIND_NAMES)
def test_faults_variant(monkeypatch, kind):
    if not api.KINDS[kind].takes_faults:
        # A kind that applies no faults refuses them at spec time.
        with pytest.raises(CampaignError, match="applies no faults"):
            _resolve(monkeypatch, kind, ({"faults": "loss=0.05"},))
        return
    assert _resolve(monkeypatch, kind, ({"faults": "loss=0.05"},)) == [
        _expected(kind, {}, {"fault_spec": "loss=0.05"})
    ]


@pytest.mark.parametrize(
    "kind,key,given,param,received",
    [(kind, *row) for kind in KIND_NAMES for row in ALONE[kind]],
)
def test_each_variant_key_alone(monkeypatch, kind, key, given, param, received):
    assert _resolve(monkeypatch, kind, ({key: given},)) == [
        _expected(kind, {param: received})
    ]


@pytest.mark.parametrize("kind", KIND_NAMES)
def test_default_spec_task_keys(kind):
    spec = CampaignSpec(experiment=kind, schemes=(BASELINE[kind][0],), seeds=1)
    assert [task.key() for task in spec.tasks()] == DEFAULT_KEYS[kind]
