"""The metrics registry — one place every counter in the process reports to.

Before this module, quantitative state was scattered: the wire fast path
kept a process-global :data:`repro.perf.PERF` block, every switch carried
``flooded_frames``/``dropped_frames`` attributes, every host a ``counters``
dict, and every scheme ad-hoc ints.  The registry absorbs them behind one
façade without slowing any of them down:

* hot-path code keeps doing plain attribute increments (free);
* cold blocks register a *collector* — a callable the registry invokes at
  snapshot time to pull their current counts;
* new instrumentation uses first-class :class:`Counter` / :class:`Gauge` /
  :class:`Histogram` metrics, with Prometheus-style labels.

Snapshots are JSON-safe dicts that survive a round trip through campaign
worker pipes and the on-disk result cache, and :meth:`MetricsRegistry.merge`
folds any snapshot into the live registry — counters and histograms add,
gauges take the incoming value, collector sections accumulate in the
registry on top of the live collector's counts.  That is how ``repro
campaign --jobs N`` aggregates per-worker wire statistics that previously
died with the worker.  Collectors therefore report counts only: a ratio
would be subtracted by :meth:`~MetricsRegistry.delta` and summed by
:meth:`~MetricsRegistry.merge` into nonsense.
"""

from __future__ import annotations

import bisect
from typing import Callable, Dict, Iterable, List, Mapping, Tuple

from repro.errors import ObsError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "REGISTRY",
    "DEFAULT_BUCKETS",
    "alerts_in",
    "subtract_counts",
]

#: Default histogram buckets (seconds) — tuned for simulated-LAN latencies,
#: which span microsecond link hops to multi-second detection delays.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0,
)


class Counter:
    """A monotonically increasing count.

    ``value`` is a plain attribute so hot paths may do ``c.value += 1``
    (the same cost as the old ad-hoc attribute counters).
    """

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ObsError(f"counters only go up (inc by {amount})")
        self.value += amount


class Gauge:
    """A value that can go up and down (queue depth, cache size...)."""

    __slots__ = ("value",)
    kind = "gauge"

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Histogram:
    """Cumulative-bucket histogram (Prometheus semantics).

    ``counts[i]`` is the number of observations ``<= buckets[i]``-exclusive
    per-bucket form (non-cumulative internally; the exporter emits the
    cumulative ``le`` view).  The final slot counts overflow (+Inf).
    """

    __slots__ = ("buckets", "counts", "sum", "count")
    kind = "histogram"

    def __init__(self, buckets: Tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        if list(buckets) != sorted(buckets) or len(set(buckets)) != len(buckets):
            raise ObsError(f"histogram buckets must be sorted unique: {buckets}")
        self.buckets = tuple(float(b) for b in buckets)
        self.counts = [0] * (len(self.buckets) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.buckets, value)] += 1
        self.sum += value
        self.count += 1

    def percentile(self, q: float) -> float:
        """Approximate percentile from bucket boundaries (diagnostics)."""
        if not self.count:
            return 0.0
        rank = max(1, int(q / 100.0 * self.count + 0.5))
        seen = 0
        for i, n in enumerate(self.counts):
            seen += n
            if seen >= rank:
                return self.buckets[i] if i < len(self.buckets) else self.buckets[-1]
        return self.buckets[-1]


_METRIC_TYPES = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


def _is_count(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _accumulate(into: Dict[str, float], payload: Mapping[str, object]) -> None:
    for key, value in payload.items():
        if _is_count(value):
            into[key] = into.get(key, 0) + value


def subtract_counts(
    after: Mapping[str, object], before: Mapping[str, object]
) -> Dict[str, float]:
    """``after - before`` for one collector section: the registry's delta rule.

    Non-numeric values are skipped and unchanged counts omitted, so the
    result carries exactly the counts that moved.
    """
    section: Dict[str, float] = {}
    for key, value in after.items():
        if _is_count(value):
            diff = value - before.get(key, 0)
            if diff:
                section[key] = diff
    return section


def alerts_in(delta: Mapping[str, object]) -> int:
    """Total ``scheme_alerts_total`` in a registry delta (all labels).

    Works identically whether alerts were raised in this process or
    merged home from fork workers — which is why results count alerts
    this way instead of reading ``scheme.alerts`` (stale in the parent
    after a fork).
    """
    family = delta.get("metrics", {}).get("scheme_alerts_total")
    if not family:
        return 0
    return int(sum(s["value"] for s in family.get("samples", ())))


class MetricFamily:
    """A named metric plus its labeled children.

    ``family.labels(scheme="dai")`` returns the child metric for that
    label combination, creating it on first use.  A family declared with
    no label names has a single anonymous child, reachable via
    :meth:`labels` with no arguments (the registry returns that child
    directly for convenience).
    """

    __slots__ = ("name", "kind", "help", "labelnames", "buckets", "_children")

    def __init__(
        self,
        name: str,
        kind: str,
        help: str = "",
        labelnames: Tuple[str, ...] = (),
        buckets: Tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> None:
        if kind not in _METRIC_TYPES:
            raise ObsError(f"unknown metric kind {kind!r}")
        self.name = name
        self.kind = kind
        self.help = help
        self.labelnames = tuple(labelnames)
        self.buckets = tuple(buckets)
        self._children: Dict[Tuple[str, ...], object] = {}

    def labels(self, **labelvalues: object):
        if set(labelvalues) != set(self.labelnames):
            raise ObsError(
                f"{self.name}: expected labels {self.labelnames}, "
                f"got {tuple(sorted(labelvalues))}"
            )
        key = tuple(str(labelvalues[n]) for n in self.labelnames)
        child = self._children.get(key)
        if child is None:
            if self.kind == "histogram":
                child = Histogram(self.buckets)
            else:
                child = _METRIC_TYPES[self.kind]()
            self._children[key] = child
        return child

    def samples(self) -> Iterable[Tuple[Dict[str, str], object]]:
        for key in sorted(self._children):
            yield dict(zip(self.labelnames, key)), self._children[key]


class MetricsRegistry:
    """Process-wide metric namespace with snapshot/merge semantics."""

    def __init__(self) -> None:
        self._families: Dict[str, MetricFamily] = {}
        self._collectors: Dict[str, Callable[[], Dict[str, float]]] = {}
        #: Collector sections merged from elsewhere (fork-workers):
        #: accumulated here, added onto the live counts in snapshots.
        self._external: Dict[str, Dict[str, float]] = {}

    # ------------------------------------------------------------------
    # Declaration
    # ------------------------------------------------------------------
    def _family(
        self,
        name: str,
        kind: str,
        help: str,
        labels: Tuple[str, ...],
        buckets: Tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> MetricFamily:
        family = self._families.get(name)
        if family is None:
            family = MetricFamily(name, kind, help, labels, buckets)
            self._families[name] = family
        elif family.kind != kind or family.labelnames != tuple(labels):
            raise ObsError(
                f"metric {name!r} re-declared as {kind}{labels} "
                f"(was {family.kind}{family.labelnames})"
            )
        return family

    def counter(self, name: str, help: str = "", labels: Tuple[str, ...] = ()):
        """Declare (or fetch) a counter; unlabeled → the metric itself."""
        family = self._family(name, "counter", help, tuple(labels))
        return family if family.labelnames else family.labels()

    def gauge(self, name: str, help: str = "", labels: Tuple[str, ...] = ()):
        family = self._family(name, "gauge", help, tuple(labels))
        return family if family.labelnames else family.labels()

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Tuple[str, ...] = (),
        buckets: Tuple[float, ...] = DEFAULT_BUCKETS,
    ):
        family = self._family(name, "histogram", help, tuple(labels), buckets)
        return family if family.labelnames else family.labels()

    def register_collector(
        self, name: str, collect: Callable[[], Dict[str, float]]
    ) -> None:
        """Attach an external counter block (e.g. ``repro.perf.PERF``).

        ``collect()`` is called at snapshot time and must return a flat
        JSON-safe dict of counts.  Re-registering the same name replaces
        the previous callable (idempotent wiring).
        """
        self._collectors[name] = collect

    def collect(self, name: str) -> Dict[str, float]:
        """One collector section: its live counts plus any merged in."""
        collect = self._collectors.get(name)
        section = dict(collect()) if collect is not None else {}
        _accumulate(section, self._external.get(name, {}))
        return section

    # ------------------------------------------------------------------
    # Snapshot / merge
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """JSON-safe point-in-time view of every metric and collector."""
        metrics: Dict[str, object] = {}
        for name, family in sorted(self._families.items()):
            samples: List[Dict[str, object]] = []
            for labels, metric in family.samples():
                if family.kind == "histogram":
                    samples.append(
                        {
                            "labels": labels,
                            "buckets": list(metric.buckets),
                            "counts": list(metric.counts),
                            "sum": metric.sum,
                            "count": metric.count,
                        }
                    )
                else:
                    samples.append({"labels": labels, "value": metric.value})
            metrics[name] = {
                "type": family.kind,
                "help": family.help,
                "labelnames": list(family.labelnames),
                "samples": samples,
            }
        names = sorted(self._collectors)
        names += sorted(set(self._external) - set(self._collectors))
        collectors = {name: self.collect(name) for name in names}
        return {"metrics": metrics, "collectors": collectors}

    def delta(self, before: Mapping[str, object]) -> Dict[str, object]:
        """The change since an earlier :meth:`snapshot`, in snapshot form.

        Counters and histograms subtract; gauges report their current
        value (a gauge delta has no meaning).  Collector sections
        subtract numerically.  All-zero samples and empty sections are
        omitted, so the result is small enough to ship over a campaign
        worker pipe.  Feeding the result to :meth:`merge` on another
        registry adds exactly the activity that happened in between —
        this is how fork-workers (which inherit the parent's counts)
        report home without double counting.
        """
        after = self.snapshot()
        before_metrics = dict(before.get("metrics", {}))
        metrics: Dict[str, object] = {}
        for name, payload in after["metrics"].items():
            prior = before_metrics.get(name, {})
            prior_samples = {
                tuple(sorted(s["labels"].items())): s
                for s in prior.get("samples", [])
            }
            samples: List[Dict[str, object]] = []
            for sample in payload["samples"]:
                base = prior_samples.get(tuple(sorted(sample["labels"].items())))
                if payload["type"] == "histogram":
                    counts = list(sample["counts"])
                    total = sample["count"]
                    total_sum = sample["sum"]
                    if base is not None:
                        counts = [a - b for a, b in zip(counts, base["counts"])]
                        total -= base["count"]
                        total_sum -= base["sum"]
                    if total:
                        samples.append(
                            {
                                "labels": sample["labels"],
                                "buckets": sample["buckets"],
                                "counts": counts,
                                "sum": total_sum,
                                "count": total,
                            }
                        )
                elif payload["type"] == "counter":
                    value = sample["value"] - (base["value"] if base else 0.0)
                    if value:
                        samples.append({"labels": sample["labels"], "value": value})
                else:  # gauge: current value stands
                    samples.append(dict(sample))
            if samples:
                metrics[name] = {
                    "type": payload["type"],
                    "help": payload["help"],
                    "labelnames": payload["labelnames"],
                    "samples": samples,
                }
        before_collectors = dict(before.get("collectors", {}))
        collectors: Dict[str, Dict[str, float]] = {}
        for name, values in after["collectors"].items():
            section = subtract_counts(values, before_collectors.get(name, {}))
            if section:
                collectors[name] = section
        return {"metrics": metrics, "collectors": collectors}

    def merge(self, snapshot: Mapping[str, object]) -> None:
        """Fold a foreign snapshot (e.g. from a fork-worker) into this one.

        Counters and histograms accumulate; gauges take the incoming
        value; collector sections accumulate in the registry's own store,
        which :meth:`collect` adds onto the live collector's counts.
        """
        for name, payload in dict(snapshot.get("metrics", {})).items():
            kind = payload["type"]
            labelnames = tuple(payload.get("labelnames", ()))
            if kind == "histogram":
                sample0 = payload["samples"][0] if payload["samples"] else None
                buckets = tuple(sample0["buckets"]) if sample0 else DEFAULT_BUCKETS
                family = self._family(
                    name, kind, payload.get("help", ""), labelnames, buckets
                )
            else:
                family = self._family(name, kind, payload.get("help", ""), labelnames)
            for sample in payload["samples"]:
                child = family.labels(**sample["labels"])
                if kind == "counter":
                    child.inc(float(sample["value"]))
                elif kind == "gauge":
                    child.set(float(sample["value"]))
                else:
                    if tuple(sample["buckets"]) != child.buckets:
                        raise ObsError(
                            f"histogram {name!r}: bucket mismatch on merge"
                        )
                    for i, n in enumerate(sample["counts"]):
                        child.counts[i] += int(n)
                    child.sum += float(sample["sum"])
                    child.count += int(sample["count"])
        for name, payload in dict(snapshot.get("collectors", {})).items():
            _accumulate(self._external.setdefault(name, {}), payload)

    def reset(self) -> None:
        """Drop every metric family and external accumulation.

        Registered collectors stay (they are wiring, not state).
        """
        self._families.clear()
        self._external.clear()

    def families(self) -> List[MetricFamily]:
        return [self._families[n] for n in sorted(self._families)]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MetricsRegistry(families={len(self._families)}, "
            f"collectors={sorted(self._collectors)})"
        )


#: The process-global registry (campaign workers snapshot it; the parent
#: merges those snapshots back here).
REGISTRY = MetricsRegistry()
