"""repro.obs — unified tracing, metrics, and frame provenance.

One import surface for the three observability primitives:

* :data:`REGISTRY` — the process-wide metrics registry
  (:class:`Counter` / :class:`Gauge` / :class:`Histogram` with labels,
  snapshot/delta/merge for campaign fork-workers).  It is the one
  counter namespace: the :data:`repro.perf.PERF` block of plain-int
  fast-path counters is read as its ``perf`` collector, and worker
  counts merged home accumulate in the registry, never in ``PERF``.
  Exporters emit the collector's counts as ``repro_perf_*``.
* :data:`TRACER` — the bounded structured event log (simulation-time
  spans and instants), off by default and zero-cost while off.
* ``TRACER.provenance`` — the frame-id table mapping live wire buffers
  back to the workload or attack that injected them.

Exporters (:func:`to_chrome_trace`, :func:`to_jsonl`,
:func:`to_prometheus` and their parsers) turn those into artifacts the
``repro run --trace-out`` / ``--metrics-out`` sinks write out.

See ``docs/observability.md`` for the span taxonomy and overhead policy.
"""

from __future__ import annotations

from repro.obs.export import (
    parse_jsonl,
    parse_prometheus,
    to_chrome_trace,
    to_jsonl,
    to_prometheus,
)
from repro.obs.live import BEACON, TelemetryRecorder
from repro.obs.profiler import SamplingProfiler
from repro.obs.provenance import FrameRecord, Provenance
from repro.obs.registry import (
    DEFAULT_BUCKETS,
    REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
)
from repro.obs.trace import DEFAULT_CAPACITY, TRACER, ObsEvent, Tracer
from repro.obs.watchdog import Heartbeat, Watchdog, WorkerHealth
from repro.perf import PERF

__all__ = [
    "BEACON",
    "REGISTRY",
    "TRACER",
    "Counter",
    "Gauge",
    "Heartbeat",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "SamplingProfiler",
    "TelemetryRecorder",
    "Tracer",
    "ObsEvent",
    "Provenance",
    "FrameRecord",
    "Watchdog",
    "WorkerHealth",
    "DEFAULT_BUCKETS",
    "DEFAULT_CAPACITY",
    "to_chrome_trace",
    "to_jsonl",
    "parse_jsonl",
    "to_prometheus",
    "parse_prometheus",
]

# The wire-fast-path counts, read at snapshot time; worker perf deltas
# merged home add onto them.  register_collector is idempotent.
REGISTRY.register_collector(
    "perf", lambda: {name: getattr(PERF, name) for name in PERF.COUNTS}
)
