"""Tests for the metrics registry (repro.obs.registry)."""

from __future__ import annotations

import json

import pytest

from repro.errors import ObsError
from repro.obs.registry import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


class TestMetricPrimitives:
    def test_counter_increments(self):
        c = Counter()
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_counter_rejects_negative(self):
        with pytest.raises(ObsError):
            Counter().inc(-1)

    def test_gauge_moves_both_ways(self):
        g = Gauge()
        g.set(10)
        g.dec(4)
        g.inc()
        assert g.value == 7.0

    def test_histogram_buckets_observations(self):
        h = Histogram(buckets=(1.0, 10.0))
        h.observe(0.5)
        h.observe(5.0)
        h.observe(50.0)
        assert h.counts == [1, 1, 1]
        assert h.count == 3
        assert h.sum == 55.5

    def test_histogram_rejects_unsorted_buckets(self):
        with pytest.raises(ObsError):
            Histogram(buckets=(1.0, 0.5))
        with pytest.raises(ObsError):
            Histogram(buckets=(1.0, 1.0))

    def test_histogram_percentile(self):
        h = Histogram(buckets=(1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 1.6, 3.0):
            h.observe(v)
        assert h.percentile(50) == 2.0
        assert h.percentile(100) == 4.0


class TestRegistryDeclaration:
    def test_unlabeled_counter_is_the_metric(self):
        reg = MetricsRegistry()
        c = reg.counter("frames_total", "frames seen")
        c.inc(3)
        assert reg.counter("frames_total") is c

    def test_labeled_family_children(self):
        reg = MetricsRegistry()
        fam = reg.counter("alerts_total", labels=("scheme",))
        fam.labels(scheme="dai").inc()
        fam.labels(scheme="dai").inc()
        fam.labels(scheme="sarp").inc()
        assert fam.labels(scheme="dai").value == 2.0
        assert fam.labels(scheme="sarp").value == 1.0

    def test_wrong_labels_raise(self):
        reg = MetricsRegistry()
        fam = reg.counter("alerts_total", labels=("scheme",))
        with pytest.raises(ObsError):
            fam.labels(host="a")
        with pytest.raises(ObsError):
            fam.labels()

    def test_redeclaration_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("x_total")
        with pytest.raises(ObsError):
            reg.gauge("x_total")
        with pytest.raises(ObsError):
            reg.counter("x_total", labels=("a",))

    def test_histogram_custom_buckets(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat_seconds", buckets=(0.1, 1.0))
        h.observe(0.05)
        assert h.buckets == (0.1, 1.0)
        assert reg.histogram("lat_seconds", buckets=(0.1, 1.0)).count == 1


class TestSnapshotDeltaMerge:
    def _registry(self):
        reg = MetricsRegistry()
        reg.counter("frames_total").inc(5)
        reg.gauge("cache_size").set(12)
        fam = reg.histogram("lat_seconds", labels=("host",), buckets=(1.0, 10.0))
        fam.labels(host="a").observe(0.5)
        fam.labels(host="a").observe(20.0)
        return reg

    def test_snapshot_is_json_safe(self):
        snap = self._registry().snapshot()
        assert json.loads(json.dumps(snap)) == snap
        assert snap["metrics"]["frames_total"]["samples"][0]["value"] == 5.0
        hist = snap["metrics"]["lat_seconds"]["samples"][0]
        assert hist["labels"] == {"host": "a"}
        assert hist["counts"] == [1, 0, 1]
        assert hist["count"] == 2

    def test_delta_subtracts_counters_and_histograms(self):
        reg = self._registry()
        before = reg.snapshot()
        reg.counter("frames_total").inc(2)
        reg.histogram("lat_seconds", labels=("host",), buckets=(1.0, 10.0)).labels(
            host="a"
        ).observe(3.0)
        delta = reg.delta(before)
        assert delta["metrics"]["frames_total"]["samples"][0]["value"] == 2.0
        hist = delta["metrics"]["lat_seconds"]["samples"][0]
        assert hist["counts"] == [0, 1, 0]
        assert hist["count"] == 1
        assert hist["sum"] == 3.0

    def test_delta_omits_unchanged_samples(self):
        reg = self._registry()
        before = reg.snapshot()
        delta = reg.delta(before)
        assert "frames_total" not in delta["metrics"]
        assert "lat_seconds" not in delta["metrics"]

    def test_delta_carries_gauge_current_value(self):
        reg = self._registry()
        before = reg.snapshot()
        reg.gauge("cache_size").set(40)
        delta = reg.delta(before)
        assert delta["metrics"]["cache_size"]["samples"][0]["value"] == 40.0

    def test_merge_accumulates(self):
        a = self._registry()
        b = MetricsRegistry()
        b.merge(a.snapshot())
        b.merge(a.snapshot())
        assert b.counter("frames_total").value == 10.0
        assert b.gauge("cache_size").value == 12.0
        hist = b.histogram(
            "lat_seconds", labels=("host",), buckets=(1.0, 10.0)
        ).labels(host="a")
        assert hist.count == 4
        assert hist.counts == [2, 0, 2]

    def test_merge_bucket_mismatch_raises(self):
        a = MetricsRegistry()
        a.histogram("h", buckets=(1.0, 2.0)).observe(0.5)
        b = MetricsRegistry()
        b.histogram("h", buckets=(5.0, 6.0))
        with pytest.raises(ObsError):
            b.merge(a.snapshot())

    def test_delta_then_merge_round_trip(self):
        """Worker pattern: parent counts + merged delta == worker counts."""
        worker = self._registry()
        before = worker.snapshot()
        worker.counter("frames_total").inc(7)
        parent = self._registry()  # forked copy: same baseline
        parent.merge(worker.delta(before))
        assert parent.counter("frames_total").value == 12.0


class TestCollectors:
    def test_collector_pulled_at_snapshot_time(self):
        reg = MetricsRegistry()
        block = {"hits": 3}
        reg.register_collector("cache", lambda: dict(block))
        assert reg.snapshot()["collectors"]["cache"] == {"hits": 3}
        block["hits"] = 9
        assert reg.snapshot()["collectors"]["cache"] == {"hits": 9}

    def test_collector_delta_subtracts(self):
        reg = MetricsRegistry()
        block = {"hits": 3}
        reg.register_collector("cache", lambda: dict(block))
        before = reg.snapshot()
        block["hits"] = 9
        assert reg.delta(before)["collectors"]["cache"] == {"hits": 6}

    def test_merge_adds_onto_live_collector(self):
        reg = MetricsRegistry()
        block = {"hits": 3}
        reg.register_collector("cache", lambda: dict(block))
        reg.merge({"metrics": {}, "collectors": {"cache": {"hits": 4}}})
        assert reg.snapshot()["collectors"]["cache"] == {"hits": 7}
        block["hits"] = 5  # live counts keep moving under the merged ones
        assert reg.collect("cache") == {"hits": 9}

    def test_merge_without_hook_accumulates_externally(self):
        reg = MetricsRegistry()
        reg.merge({"metrics": {}, "collectors": {"worker": {"n": 2}}})
        reg.merge({"metrics": {}, "collectors": {"worker": {"n": 3}}})
        assert reg.snapshot()["collectors"]["worker"] == {"n": 5}

    def test_reset_keeps_collectors_drops_metrics(self):
        reg = MetricsRegistry()
        reg.counter("x_total").inc()
        reg.register_collector("cache", lambda: {"hits": 1})
        reg.reset()
        snap = reg.snapshot()
        assert snap["metrics"] == {}
        assert snap["collectors"] == {"cache": {"hits": 1}}


class TestGlobalWiring:
    def test_perf_block_registered_on_global_registry(self):
        from repro.obs import REGISTRY
        from repro.perf import PERF

        snap = REGISTRY.snapshot()
        assert "perf" in snap["collectors"]
        assert set(snap["collectors"]["perf"]) == set(PERF.COUNTS)

    def test_default_buckets_cover_lan_latencies(self):
        assert DEFAULT_BUCKETS[0] <= 1e-4
        assert DEFAULT_BUCKETS[-1] >= 10.0
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)


class TestPerfCountsOnly:
    """The ``perf`` section holds counts; only the summary derives rates."""

    def test_window_delta_and_worker_merge_carry_counts_only(self):
        from repro.obs import REGISTRY
        from repro.perf import PERF

        import gc

        PERF.reset()
        # The section also counts GC runs; keep this window free of them.
        enabled = gc.isenabled()
        gc.disable()
        try:
            # Cumulative memo rate 0.9 before the window, 0.5 after it:
            # the window itself memoized 1 of 10 encodes (rate 0.1).
            PERF.packet_encodes, PERF.encodes_avoided = 1, 9
            before = REGISTRY.snapshot()
            PERF.packet_encodes += 9
            PERF.encodes_avoided += 1
            PERF.batched_items += 10
            PERF.batch_flushes += 4
            window = REGISTRY.delta(before)["collectors"]["perf"]
        finally:
            if enabled:
                gc.enable()
            PERF.reset()
        parent = MetricsRegistry()
        for _ in range(2):  # two workers ship the same window home
            parent.merge({"metrics": {}, "collectors": {"perf": window}})
        merged = parent.snapshot()["collectors"]["perf"]

        for section in (window, merged):
            assert all(
                type(value) is int and value >= 0 for value in section.values()
            ), section
        assert window == {
            "packet_encodes": 9,
            "encodes_avoided": 1,
            "batched_items": 10,
            "batch_flushes": 4,
        }
        assert merged == {key: 2 * value for key, value in window.items()}

        from repro.perf import summary

        for section in (window, merged):
            text = summary(section)
            assert "(10% memoized)" in text
            assert "(60% coalesced)" in text
            assert "intern-hit-rate=0%" in text
