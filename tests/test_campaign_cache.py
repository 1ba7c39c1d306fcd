"""Cache behavior: hits, invalidation, bypass, and corruption recovery."""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

from repro.campaign import (
    CampaignSpec,
    ResultCache,
    aggregate,
    code_fingerprint,
    run_campaign,
)

FAST = {"n_hosts": 3, "warmup": 2.0, "attack_duration": 6.0, "cooldown": 1.0}

SPEC = CampaignSpec(
    experiment="effectiveness",
    schemes=(None, "dai"),
    seeds=2,
    scenario=dict(FAST),
)


def test_second_run_is_all_hits(tmp_path):
    first = run_campaign(SPEC, cache=ResultCache(tmp_path))
    assert first.cache_hits == 0 and first.executed == 4

    second = run_campaign(SPEC, cache=ResultCache(tmp_path))
    assert second.cache_hits == 4 and second.executed == 0
    assert second.cache_hit_rate == 1.0
    assert aggregate(second) == aggregate(first)


def test_partial_hit_only_computes_new_cells(tmp_path):
    run_campaign(SPEC, cache=ResultCache(tmp_path))
    wider = dataclasses.replace(SPEC, seeds=3)
    campaign = run_campaign(wider, cache=ResultCache(tmp_path))
    # The first two trials of each cell are served from cache; only the
    # third is new.
    assert campaign.cache_hits == 4
    assert campaign.executed == 2


def test_spec_change_misses(tmp_path):
    run_campaign(SPEC, cache=ResultCache(tmp_path))
    changed = dataclasses.replace(SPEC, root_seed=99)
    campaign = run_campaign(changed, cache=ResultCache(tmp_path))
    assert campaign.cache_hits == 0
    assert campaign.executed == 4


def test_no_cache_bypass_recomputes(tmp_path):
    run_campaign(SPEC, cache=ResultCache(tmp_path))
    campaign = run_campaign(SPEC, cache=None)
    assert campaign.cache_hits == 0
    assert campaign.executed == 4


def test_corrupt_entries_recovered(tmp_path):
    cache = ResultCache(tmp_path)
    first = run_campaign(SPEC, cache=cache)
    entries = sorted(tmp_path.glob("*.json"))
    assert len(entries) == 4
    entries[0].write_text("{ not json", encoding="utf-8")
    entries[1].write_text(json.dumps({"result": "not-a-dict"}), encoding="utf-8")

    with pytest.warns(RuntimeWarning, match="corrupt campaign cache entry"):
        second = run_campaign(SPEC, cache=ResultCache(tmp_path))
    assert second.cache_hits == 2
    assert second.executed == 2
    assert second.failures == ()
    assert aggregate(second) == aggregate(first)
    # The recomputed entries were written back good.
    third = run_campaign(SPEC, cache=ResultCache(tmp_path))
    assert third.cache_hits == 4


def test_get_unknown_key_is_miss(tmp_path):
    cache = ResultCache(tmp_path)
    assert cache.get("0" * 64) is None
    assert cache.misses == 1 and cache.hits == 0


def test_task_keys_are_content_addressed(tmp_path):
    cache = ResultCache(tmp_path)
    tasks = SPEC.tasks()
    assert cache.task_key(tasks[0]) == cache.task_key(tasks[0])
    assert cache.task_key(tasks[0]) != cache.task_key(tasks[1])


def test_code_fingerprint_is_stable():
    assert code_fingerprint() == code_fingerprint()
    assert len(code_fingerprint()) == 16


def _fingerprint_after_edit(tmp_path, module_path: str) -> tuple:
    """Fingerprints of a copy of the package before and after appending
    a comment to ``module_path`` (relative to the package root)."""
    package = Path(repro.__file__).parent
    copy = tmp_path / "repro"
    shutil.copytree(package, copy, ignore=shutil.ignore_patterns("__pycache__"))

    def fingerprint() -> str:
        return subprocess.run(
            [sys.executable, "-c",
             "from repro.campaign import code_fingerprint; print(code_fingerprint())"],
            env={**os.environ, "PYTHONPATH": str(tmp_path)},
            capture_output=True, text=True, check=True,
        ).stdout.strip()

    before = fingerprint()
    with (copy / module_path).open("a", encoding="utf-8") as fh:
        fh.write("\n# edited\n")
    return before, fingerprint()


def test_code_fingerprint_covers_every_result_type(tmp_path):
    """A result type defined outside the experiment module (replay's)
    is hashed too, so a field it gains or loses re-keys the cache."""
    before, after = _fingerprint_after_edit(tmp_path, "replay/engine.py")
    assert len(before) == 16 and before != after


@pytest.mark.parametrize("module_path", ["schemes/arpwatch.py", "sim/simulator.py"])
def test_code_fingerprint_covers_scheme_and_engine_modules(tmp_path, module_path):
    """Editing a scheme or engine module changes every cache key, so a
    warm cache never serves a result the old code computed."""
    before, after = _fingerprint_after_edit(tmp_path, module_path)
    assert len(before) == 16 and before != after
