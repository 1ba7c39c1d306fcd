"""Tracing and the batched data plane: the fallback contract.

PR 7's batch plane is only allowed to run when nobody is watching
per-frame: an enabled ``TRACER`` forces every device and switch back to
the per-frame path, because spans and frame provenance observe switch
state *between* frames.  These tests pin that interaction down — a
traced batched simulator must take zero batch fast paths, deliver the
same traffic, and export byte-identical Chrome traces regardless of the
``batching`` flag or rerun.
"""

from __future__ import annotations

import json

import pytest

from repro.obs.export import to_chrome_trace
from repro.obs.registry import REGISTRY, subtract_counts
from repro.obs.trace import TRACER
from repro.l2.topology import Lan
from repro.sim.simulator import Simulator


@pytest.fixture(autouse=True)
def clean_global_tracer():
    TRACER.disable()
    TRACER.reset()
    yield
    TRACER.disable()
    TRACER.reset()


def _run_traced(batching: bool, seed: int = 23):
    """Drive mixed traffic with tracing on; return trace doc + evidence."""
    TRACER.reset()
    TRACER.enable()
    perf_before = REGISTRY.collect("perf")
    try:
        sim = Simulator(seed=seed, batching=batching)
        lan = Lan(sim)
        hosts = [lan.add_host(f"h{i}") for i in range(4)]
        hosts[0].ping(hosts[1].ip)
        hosts[2].announce()
        sim.run(until=2.0)
        hosts[3].ping(hosts[0].ip)
        sim.run(until=6.0)
    finally:
        TRACER.disable()
    perf_delta = subtract_counts(REGISTRY.collect("perf"), perf_before)
    doc = to_chrome_trace(list(TRACER.events), TRACER.provenance.frames)
    rx = {h.name: h.nic.rx_frames for h in hosts}
    return doc, perf_delta, rx, len(TRACER)


class TestTracingForcesPerFramePlane:
    def test_batched_sim_takes_zero_batch_fast_paths_while_traced(self):
        doc, perf_delta, rx, n_events = _run_traced(batching=True)
        # The batch accounting never moved: every frame went per-frame.
        assert perf_delta.get("batch_flushes", 0) == 0
        assert perf_delta.get("batched_items", 0) == 0
        # ...and the traffic still flowed and was traced.
        assert all(count > 0 for count in rx.values())
        assert n_events > 0

    def test_trace_is_identical_across_planes(self):
        batched, _, rx_b, _ = _run_traced(batching=True)
        unbatched, _, rx_u, _ = _run_traced(batching=False)
        assert rx_b == rx_u
        assert json.dumps(batched, sort_keys=True) == json.dumps(
            unbatched, sort_keys=True
        )

    def test_chrome_export_is_byte_identical_across_reruns(self):
        first, _, _, _ = _run_traced(batching=True)
        second, _, _, _ = _run_traced(batching=True)
        assert json.dumps(first, sort_keys=True) == json.dumps(
            second, sort_keys=True
        )
        # Spot-check the export actually carries spans + provenance.
        assert first["traceEvents"]
        assert first.get("frameProvenance")


class TestUntracedBatchedPlaneStillBatches:
    def test_batch_fast_path_resumes_once_tracer_is_off(self):
        perf_before = REGISTRY.collect("perf")
        sim = Simulator(seed=23, batching=True)
        lan = Lan(sim)
        hosts = [lan.add_host(f"h{i}") for i in range(4)]
        hosts[0].ping(hosts[1].ip)
        hosts[2].announce()
        sim.run(until=6.0)
        perf_delta = subtract_counts(REGISTRY.collect("perf"), perf_before)
        assert perf_delta.get("batch_flushes", 0) > 0
