#!/usr/bin/env python3
"""Run one benchmark workload (or all of them) and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload campus --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --trace 1

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separately traced run.  The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
See ``perfbench/README.md`` for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from gauge import NOMINAL_S, Gauge

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"
#: Scratch space inside the checkout (temporary pcaps, span samples).
WORKDIR = ROOT / ".perfbench"
WORKLOADS = ("paper", "campus", "defended-lan", "replay")
END_TO_END = (
    ("setup_s", "s"),
    ("artifacts_s", "s"),
    ("cell_p50_ms", "ms"),
    ("cell_p90_ms", "ms"),
    ("frames_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--digests", type=Path, default=DIGESTS,
                        help="committed output digests to check against")
    parser.add_argument("--update-digests", action="store_true",
                        help="record this seed's outputs in --digests")
    return parser.parse_args(argv)


def note(text: str) -> None:
    print(f"# {text}", flush=True)


def percentile(values, q: int) -> float:
    """The q-th percentile (q in 1..99) as statistics.quantiles gives it."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def load_expected(path: Path, size: str, workload: str, seed: int):
    """Committed digests for (size, workload, seed); ``"*"`` = any seed."""
    try:
        table = json.loads(path.read_text())
    except FileNotFoundError:
        return None
    by_seed = table.get(size, {}).get(workload, {})
    return by_seed.get(str(seed), by_seed.get("*"))


def store_expected(path: Path, size: str, workload: str, seed: int, outputs) -> None:
    table = json.loads(path.read_text()) if path.exists() else {}
    table.setdefault(size, {}).setdefault(workload, {})[str(seed)] = outputs
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


class Checker:
    """Counts checked outputs and the ones that did not match."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def compare(self, what: str, got, expected) -> None:
        self.attempted += 1
        if got != expected:
            self.failed += 1
            note(f"MISMATCH {what}: got {got} expected {expected}")


def timed_loop(workload, seconds: float, tracer=None, gauge=None):
    """Closed loop: one pass after another until ``seconds`` have passed,
    with a gauge round before each pass and after the last."""
    passes = []
    start = time.perf_counter()
    while True:
        if gauge is not None:
            gauge.read()
        passes.append(workload.run_pass(tracer))
        if time.perf_counter() - start >= seconds:
            if gauge is not None:
                gauge.read()
            return passes


def check_outputs(checker: Checker, workload, passes, expected, extra) -> dict:
    """Compare every pass (and the once-per-run checks) with the expected
    digests; with none committed, the reference path supplies them."""
    outputs = dict(passes[0].outputs)
    outputs.update(extra)
    if expected is None:
        note("no committed digest for this seed: checking against the reference path")
        expected = dict(workload.reference() or outputs)
        for name, value in extra.items():
            expected.setdefault(name, value)
    for i, p in enumerate(passes):
        for name, value in p.outputs.items():
            checker.compare(f"pass {i} {name}", value, expected.get(name))
    for name, value in extra.items():
        checker.compare(name, value, expected.get(name))
    return outputs


def import_seconds(gauge, repeats: int = 3) -> float:
    """Median time for a fresh interpreter to import the program and the
    workloads, at the nominal host speed, over ``repeats`` subprocesses."""
    code = f"import sys; sys.path[:0] = [{str(SRC)!r}, {str(HERE)!r}]; import workloads"
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True)
        times.append((t0, time.perf_counter() - t0))
        gauge.read()
    return statistics.median(gauge.normal(seconds, t0) for t0, seconds in times)


def end_to_end(passes, gauge, import_s: float, setup_span) -> dict:
    """Every time at the gauge's nominal host speed (see ``gauge.py``);
    ``setup_span`` is the (start, seconds) of the workload's one-off set-up."""
    scaled = [(c, gauge.scale(c.start, c.start + c.wall_s)) for p in passes for c in p.cells]
    cells = [c.wall_s * k for c, k in scaled]
    setups = [(c.wall_s - c.timed_s) * k for c, k in scaled if c.timed_s is not None]
    pass_scale = [gauge.scale(p.start, p.end) for p in passes]
    note(f"passes={len(passes)} cells={len(cells)} gauge rounds={len(gauge.rounds)}")
    note(f"host speed: median gauge round {gauge.median_round() * 1e3:.2f} ms "
         f"(nominal {NOMINAL_S * 1e3:.2f} ms); unscaled median pass "
         f"{statistics.median(p.wall_s for p in passes):.4f} s")
    return {
        "setup_s": import_s + gauge.normal(setup_span[1], setup_span[0])
        + (statistics.median(setups) if setups else 0.0),
        "artifacts_s": statistics.median(p.wall_s * k for p, k in zip(passes, pass_scale)),
        "cell_p50_ms": percentile(cells, 50) * 1e3,
        "cell_p90_ms": percentile(cells, 90) * 1e3,
        "frames_per_s": statistics.median(
            p.frames / (p.timed_s * k) for p, k in zip(passes, pass_scale)
        ),
        "peak_rss_mb": peak_rss_mb(),
    }


def traced(workload, args, checker: Checker):
    """Per-layer run: calibrate untraced, trace, cross-check, restore."""
    import layers
    from tracer import LayerTracer

    calibration = None if args.workload == "paper" else workload.run_pass()
    tracer = LayerTracer()
    layers.install(tracer)
    try:
        before = layers.program_counters()
        tracer.active = True
        passes = timed_loop(workload, args.seconds, tracer)
        tracer.active = False
        after = layers.program_counters()
        checker.compare("cross-check", layers.cross_check(tracer, before, after), [])
    finally:
        tracer.restore()
    leftovers = layers.leftover_patches()
    checker.compare("wrappers restored", leftovers, [])
    wall = sum(p.wall_s for p in passes)
    if calibration is not None:
        overhead = statistics.median(p.wall_s for p in passes) / calibration.wall_s - 1.0
    else:
        # Re-run an even sample of the traced cells untraced, one to one.
        cells = [c for p in passes for c in p.cells]
        sample = cells[:: max(1, len(cells) // 16)]
        untraced = 0.0
        for cell in sample:
            t0 = time.perf_counter()
            cell.again()
            untraced += time.perf_counter() - t0
        overhead = sum(c.wall_s for c in sample) / untraced - 1.0
    write_spans(tracer, args)
    metrics = layers.layer_metrics(tracer, wall, overhead)
    return passes, {name: (metrics[name], unit) for name, unit in layers.metric_units()}


def write_spans(tracer, args) -> None:
    WORKDIR.mkdir(exist_ok=True)
    path = WORKDIR / f"spans-{args.workload}-seed{args.seed}.json"
    fields = ("layer", "name", "parent", "start_s", "dur_s")
    path.write_text(json.dumps({
        "fields": fields,
        "sampling_stride": tracer._span_stride,
        "spans": tracer.spans,
    }))
    note(f"span sample ({len(tracer.spans)} spans) written to {path.relative_to(ROOT)}")


def run_one(args) -> int:
    sys.path.insert(0, str(SRC))
    import workloads as wl

    gauge = Gauge()
    gauge.read()
    import_s = 0.0 if args.trace else import_seconds(gauge)
    probe = wl.Probe()
    probe.install()
    workdir = str(WORKDIR / f"tmp-{os.getpid()}")
    workload = wl.WORKLOAD_TYPES[args.workload](args.seed, args.size, probe, workdir)
    checker = Checker()
    try:
        t1 = time.perf_counter()
        setup_extra = workload.setup()
        expected = None
        if not args.update_digests:
            expected = load_expected(args.digests, args.size, args.workload, args.seed)
        if args.trace:
            passes, metrics = traced(workload, args, checker)
        else:
            probe.gauge = gauge
            passes = timed_loop(workload, args.seconds, gauge=gauge)
            probe.gauge = None
            values = end_to_end(passes, gauge, import_s, (t1, setup_extra))
            metrics = {name: (values[name], unit) for name, unit in END_TO_END}
        extra = workload.extra_checks()
        outputs = check_outputs(checker, workload, passes, expected, extra)
    finally:
        workload.cleanup()
        probe.restore()
    if args.update_digests and checker.failed == 0:
        key = "*" if workload.seed_independent else args.seed
        store_expected(args.digests, args.size, args.workload, key, outputs)
        note(f"stored digests for seed {args.seed} in {args.digests}")
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so set-up time and peak memory
    of one never include another's."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--size", args.size,
            "--digests", str(args.digests),
        ]
        note(f"workload {name}")
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line)
        if proc.returncode != 0 or not lines:
            note(f"workload {name} exited with {proc.returncode}")
            combined["correct"] = False
            combined["failed"] += 1
            continue
        result = json.loads(lines[-1])
        for metric, value in result["metrics"].items():
            note(f"{name:13s} {metric:28s} {value['value']:.6g} {value['unit']}")
            combined["metrics"][f"{name}/{metric}"] = value
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
    print(json.dumps(combined), flush=True)
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: program source not found at {SRC.relative_to(ROOT)}/repro; "
            "run from the root of a full checkout",
            file=sys.stderr,
        )
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
