"""Tests of the benchmark itself (not of the program it measures).

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q

Every workload runs at its ``tiny`` size, so the whole file takes well
under a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
RUN = BENCH / "run.py"
WORKLOADS = ("paper", "campus", "defended-lan", "replay")


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(RUN), *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=170, check=False,
    )
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", ("0", "1"))
def test_tiny_smoke_prints_exactly_the_declared_metrics(workload, trace):
    proc = run_bench(
        "--workload", workload, "--size", "tiny", "--seed", "0",
        "--seconds", "0.3", "--trace", trace,
    )
    result = result_of(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    declared = spec()["per_layer" if trace == "1" else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_perturbed_digest_counts_as_failed(tmp_path):
    table = json.loads((BENCH / "digests.json").read_text())
    outputs = table["tiny"]["campus"]["0"]
    outputs["cell"] = "0" * len(outputs["cell"])
    perturbed = tmp_path / "digests.json"
    perturbed.write_text(json.dumps(table))
    result = result_of(run_bench(
        "--workload", "campus", "--size", "tiny", "--seed", "0",
        "--seconds", "0.3", "--digests", str(perturbed),
    ))
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1


def test_no_wrapper_left_patched_after_a_traced_run():
    sys.path[:0] = [str(BENCH), str(ROOT / "src")]
    try:
        import layers
        import workloads
        from tracer import LayerTracer

        probe = workloads.Probe()
        probe.install()
        tracer = LayerTracer()
        layers.install(tracer)
        assert tracer.patched > 100
        assert layers.leftover_patches()
        try:
            tracer.active = True
            cell = workloads.Campus(0, "tiny", probe, "unused").run_pass(tracer)
            tracer.active = False
        finally:
            tracer.restore()
            probe.restore()
        assert cell.frames > 0 and tracer.counts["sim.events"] > 0
        assert tracer.patched == 0
        assert layers.leftover_patches() == []
    finally:
        del sys.path[:2]


def test_self_times_add_up_and_planes_separate():
    by_workload = {}
    for workload in ("campus", "defended-lan"):
        result = result_of(run_bench(
            "--workload", workload, "--size", "tiny", "--seconds", "0.5", "--trace", "1",
        ))
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        self_total = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
        assert self_total == pytest.approx(metrics["traced.wall_s"], rel=1e-6)
        assert metrics["other.self_s"] < 0.2 * metrics["traced.wall_s"]
        by_workload[workload] = metrics
    assert by_workload["campus"]["switch.per_frame_frac"] < 0.05
    assert by_workload["defended-lan"]["switch.per_frame_frac"] > 0.95


def test_gauge_scales_by_the_rounds_around_an_interval():
    sys.path.insert(0, str(BENCH))
    try:
        from gauge import NOMINAL_S, Gauge
    finally:
        del sys.path[0]
    gauge = Gauge()
    gauge.margin = 0
    gauge.starts, gauge.ends, gauge.rounds = [0.0, 2.0, 4.0], [0.1, 2.1, 4.1], [0.1, 0.1, 0.3]
    assert gauge.scale(0.2, 1.9) == pytest.approx(NOMINAL_S / 0.1)
    assert gauge.normal(1.7, 2.2) == pytest.approx(1.7 * NOMINAL_S / 0.2)
    gauge.margin = 1
    assert gauge.scale(2.2, 3.9) == pytest.approx(NOMINAL_S / (0.5 / 3))


def test_fails_without_the_program_source(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=60, check=False,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
