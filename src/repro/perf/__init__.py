"""Wire fast-path performance counters.

The hot path of the simulation is the L2 wire: every frame hop encodes,
carries, and decodes bytes.  The fast path introduced with this module
avoids most of that work — immutable packets memoize their serialization,
received frames are parsed lazily (header first, payload only on demand),
floods reuse a single encoded buffer, and hot addresses are interned.

:data:`PERF` is the process-global counter block those optimizations
report into.  It answers "did the fast path actually engage?" without a
profiler: encodes avoided, payload decodes skipped, flood buffers reused,
the address-intern hits and the garbage collector's runs per generation.
Counters are plain attribute increments so the instrumentation itself
stays off the profile; the intern hits and GC runs are read from their
owners only when someone reads them.

``PERF`` holds counts only.  The metrics registry reads them as its
``perf`` collector (:attr:`PerfCounters.COUNTS`) and owns everything
else: snapshots, window deltas, and merging worker counts home.  Rates
are derived from counts in one place, :func:`summary`, so no rate is
ever subtracted or summed.

Counters are cumulative for the process; :meth:`PerfCounters.reset`
re-baselines everything (including the intern-cache statistics, which
live in :mod:`repro.net.addresses`, and the GC runs, which
:func:`gc.get_stats` counts).
"""

from __future__ import annotations

import gc
from typing import Mapping

__all__ = ["PerfCounters", "PERF", "summary"]


class PerfCounters:
    """Process-wide counters for the wire fast path."""

    #: Plain-int counters the fast path increments directly.
    ADDITIVE = (
        "packet_encodes",
        "encodes_avoided",
        "lazy_frames",
        "payload_decodes",
        "eager_decodes",
        "flood_buffer_reuses",
        "trace_drops",
        "hook_errors",
        "dedup_evictions",
        "batch_flushes",
        "batched_items",
        "nic_batch_filtered",
        "cam_sweeps",
        "cam_sweep_skips",
        "arp_settled",
    )

    #: Garbage-collector runs per generation since :meth:`reset`, read
    #: from :func:`gc.get_stats` only when someone reads them.
    GC_RUNS = ("gc_gen0", "gc_gen1", "gc_gen2")

    #: Every count the registry's ``perf`` collector reports: the
    #: additive fields plus the intern hits and misses and the GC runs
    #: since :meth:`reset`.
    COUNTS = ADDITIVE + ("intern_hits", "intern_misses") + GC_RUNS

    __slots__ = ADDITIVE + (
        "_intern_hits_base",
        "_intern_misses_base",
        "_gc_base",
    )

    def __init__(self) -> None:
        self.packet_encodes = 0
        self.encodes_avoided = 0
        self.lazy_frames = 0
        self.payload_decodes = 0
        self.eager_decodes = 0
        self.flood_buffer_reuses = 0
        self.trace_drops = 0
        #: Hook exceptions isolated by the pipeline (repro.hooks).
        self.hook_errors = 0
        #: Alert-dedup LRU evictions (bounded Scheme._dedup_seen).
        self.dedup_evictions = 0
        #: Coalesced-batch flush events dispatched by the simulator.
        self.batch_flushes = 0
        #: Frames delivered through coalesced batches (vs one event each).
        self.batched_items = 0
        #: Foreign unicast frames dropped by the vectorized NIC filter
        #: without an event, a frame view, or a per-frame Python call.
        self.nic_batch_filtered = 0
        #: CAM aging sweeps actually performed (full dict walks).
        self.cam_sweeps = 0
        #: CAM sweeps skipped by the next-expiry watermark.
        self.cam_sweep_skips = 0
        #: Received ARP requests a host settled without the ARP input
        #: path: RFC 826 leaves them nothing to do.
        self.arp_settled = 0
        self._intern_hits_base = 0
        self._intern_misses_base = 0
        self._gc_base = (0, 0, 0)

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Zero every counter and re-baseline the intern and GC statistics."""
        hits, misses = self._intern_totals()
        for name in self.ADDITIVE:
            setattr(self, name, 0)
        self._intern_hits_base = hits
        self._intern_misses_base = misses
        self._gc_base = self._gc_totals()

    @staticmethod
    def _gc_totals() -> tuple:
        return tuple(gen["collections"] for gen in gc.get_stats())

    @staticmethod
    def _intern_totals() -> tuple[int, int]:
        from repro.net.addresses import intern_stats

        return intern_stats()

    # ------------------------------------------------------------------
    @property
    def lazy_decodes_skipped(self) -> int:
        """Lazy frame views whose payload was never materialized."""
        return max(0, self.lazy_frames - self.payload_decodes)

    @property
    def intern_hits(self) -> int:
        return self._intern_totals()[0] - self._intern_hits_base

    @property
    def intern_misses(self) -> int:
        return self._intern_totals()[1] - self._intern_misses_base

    @property
    def gc_gen0(self) -> int:
        return self._gc_totals()[0] - self._gc_base[0]

    @property
    def gc_gen1(self) -> int:
        return self._gc_totals()[1] - self._gc_base[1]

    @property
    def gc_gen2(self) -> int:
        return self._gc_totals()[2] - self._gc_base[2]


def _ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def summary(counts: Mapping[str, int]) -> str:
    """The ``# perf:`` one-liner, with its rates derived from ``counts``.

    ``counts`` is a registry ``perf`` collector section: a snapshot, a
    window delta or a merge of worker deltas.  Missing keys count as
    zero, because :meth:`~repro.obs.registry.MetricsRegistry.delta`
    omits them.
    """
    c = {name: int(counts.get(name, 0)) for name in PerfCounters.COUNTS}
    drops = f", trace-drops={c['trace_drops']}" if c["trace_drops"] else ""
    if c["hook_errors"]:
        drops += f", hook-errors={c['hook_errors']}"
    batched = ""
    if c["batched_items"]:
        coalesced = c["batched_items"] - c["batch_flushes"]
        batched = (
            f", batched-frames={c['batched_items']} "
            f"({_ratio(coalesced, c['batched_items']):.0%} coalesced)"
        )
    encodes = c["packet_encodes"] + c["encodes_avoided"]
    interns = c["intern_hits"] + c["intern_misses"]
    return (
        f"encodes={c['packet_encodes']} "
        f"avoided={c['encodes_avoided']} "
        f"({_ratio(c['encodes_avoided'], encodes):.0%} memoized), "
        f"lazy-views={c['lazy_frames']} "
        f"payload-decodes-skipped={max(0, c['lazy_frames'] - c['payload_decodes'])}, "
        f"flood-buffer-reuses={c['flood_buffer_reuses']}, "
        f"arp-settled={c['arp_settled']}, "
        f"intern-hit-rate={_ratio(c['intern_hits'], interns):.0%}, "
        f"gc-runs={c['gc_gen0']}/{c['gc_gen1']}/{c['gc_gen2']}" + batched + drops
    )


#: The process-global counter block every fast-path site reports into.
PERF = PerfCounters()
