"""On-disk JSON result cache for campaign tasks.

Each completed task is stored as one JSON file named by a content hash
of (task cell, code fingerprint).  Re-running a campaign only computes
cells whose key is absent — a spec edit, a new seed, or a change to the
experiment code all produce new keys, so stale results can never be
served.  Corrupt or unreadable entries are treated as misses (with a
warning) and recomputed; the cache never crashes a campaign.
"""

from __future__ import annotations

import hashlib
import json
import os
import warnings
from functools import lru_cache
from pathlib import Path
from typing import Dict, Mapping, Optional

import repro
from repro._version import __version__
from repro.campaign.spec import CampaignTask

__all__ = ["ResultCache", "code_fingerprint"]


@lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """Hash of the code that produces results, for cache invalidation.

    Covers the package version plus the path and source of every module
    in the ``repro`` package, in sorted path order: editing any module
    (an experiment, a scheme, an engine, a result type) changes every
    cache key, so a cached result was always computed by the code that
    would serve it.  In environments where the source files are not on
    disk (zipped installs), falls back to the version string alone.
    """
    hasher = hashlib.sha256(__version__.encode("utf-8"))
    root = Path(repro.__file__).parent
    try:
        for path in sorted(root.rglob("*.py")):
            hasher.update(path.relative_to(root).as_posix().encode("utf-8") + b"\0")
            hasher.update(path.read_bytes() + b"\0")
    except OSError:  # pragma: no cover - zipped/frozen installs
        pass
    return hasher.hexdigest()[:16]


class ResultCache:
    """Content-addressed store of task results under one directory."""

    def __init__(self, root: Path | str) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    # Keys
    # ------------------------------------------------------------------
    def task_key(self, task: CampaignTask) -> str:
        """Content hash identifying ``task`` under the current code."""
        material = json.dumps(
            {"task": task.to_dict(), "code": code_fingerprint()},
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(material.encode("utf-8")).hexdigest()

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    # ------------------------------------------------------------------
    # Read / write
    # ------------------------------------------------------------------
    def get(self, key: str) -> Optional[Dict[str, object]]:
        """The cached result dict for ``key``, or ``None`` on a miss.

        A corrupt entry (truncated write, bad JSON, wrong shape) is
        deleted, warned about, and reported as a miss.
        """
        path = self._path(key)
        try:
            with path.open("r", encoding="utf-8") as fh:
                payload = json.load(fh)
            result = payload["result"]
            if not isinstance(result, dict):
                raise ValueError("cache entry 'result' is not a dict")
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, ValueError, KeyError, TypeError) as exc:
            warnings.warn(
                f"discarding corrupt campaign cache entry {path.name}: {exc}",
                RuntimeWarning,
                stacklevel=2,
            )
            try:
                path.unlink()
            except OSError:
                pass
            self.misses += 1
            return None
        self.hits += 1
        return result

    def put(
        self, key: str, task: CampaignTask, result: Mapping[str, object]
    ) -> None:
        """Store ``result`` for ``key`` atomically (write temp, rename)."""
        payload = {"key": key, "task": task.to_dict(), "result": dict(result)}
        path = self._path(key)
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            with tmp.open("w", encoding="utf-8") as fh:
                json.dump(payload, fh, sort_keys=True)
            tmp.replace(path)
        except OSError as exc:  # a full/read-only disk must not kill the run
            warnings.warn(
                f"could not write campaign cache entry {path.name}: {exc}",
                RuntimeWarning,
                stacklevel=2,
            )
            try:
                tmp.unlink()
            except OSError:
                pass

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*.json"))

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ResultCache(root={str(self.root)!r}, entries={len(self)}, "
            f"hits={self.hits}, misses={self.misses})"
        )
