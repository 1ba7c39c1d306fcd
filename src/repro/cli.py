"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list-schemes``
    The registry with profile one-liners.
``table N`` / ``figure N``
    Regenerate one of the paper's artifacts (N in 1..4) and print it;
    ``--csv`` emits machine-readable CSV instead of the text table.
``run KIND``
    Run one experiment of any ``api.KINDS`` kind once, optionally with
    ``--scheme SPEC`` installed (a registry key or a '+'-joined stack
    such as ``dai+arpwatch``) and ``--set KEY=VALUE`` variant or
    scenario settings, and print its result as one JSON object.  Its
    sinks combine freely: ``--trace-out`` (Chrome trace or JSONL event
    log with frame provenance), ``--metrics-out`` (Prometheus text or
    JSON registry snapshot), ``--profile-out`` (sampled collapsed
    stacks with per-subsystem attribution) and ``--telemetry-out``
    (live JSONL time series).
``campaign``
    Sweep an experiment over schemes × variants × seeds on a worker
    pool (``--jobs``), with on-disk result caching (``--cache-dir`` /
    ``--no-cache``), and print multi-trial aggregate statistics.
``replay``
    Stream a frame trace — a pcap capture (``--pcap``) or a seeded
    synthetic generator (``--synthetic``) — through a monitor-placed
    scheme's tap in bounded memory, and report frames, alerts, and
    sustained ingest throughput.
``top``
    Live per-worker progress view over the heartbeat files a campaign
    writes when the run-health watchdog is enabled.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import ExitStack, contextmanager
from dataclasses import fields
from pathlib import Path
from typing import Callable, Dict, Iterator, NoReturn, Optional

from repro._version import __version__
from repro.core import api, report
from repro.core.experiment import ScenarioConfig
from repro.errors import ExperimentError, FaultError
from repro.faults import parse_fault_spec
from repro.schemes.registry import SCHEME_FACTORIES, all_profiles, validate_scheme_spec

__all__ = ["main", "build_parser"]


def _scheme_spec(value: str) -> str:
    """argparse type for ``--scheme``: a registry key or a '+'-stack."""
    if not validate_scheme_spec(value):
        raise argparse.ArgumentTypeError(
            f"unknown scheme {value!r}; known: {', '.join(sorted(SCHEME_FACTORIES))} "
            "(join with '+' to stack, e.g. dai+arpwatch)"
        )
    return value


def _positive_int(value: str) -> int:
    """argparse type for counts that must be at least 1 (hosts, seeds, jobs)."""
    try:
        number = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {value!r}") from None
    if number < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {number}")
    return number


def _fault_spec(value: str) -> Optional[str]:
    """argparse type for ``--faults``: a compact impairment spec or 'none'."""
    try:
        spec = parse_fault_spec(value)
    except FaultError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return value if spec is not None else None


def _trace_spec(value: str) -> str:
    """argparse type for ``--traces``: a replay source spec string."""
    from repro.errors import ReplayError
    from repro.replay import open_source

    try:
        open_source(value)
    except ReplayError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return value


_TABLES: Dict[int, Callable[[], "report.Artifact"]] = {
    1: report.table_1_criteria,
    2: report.table_2_effectiveness,
    3: report.table_3_false_positives,
    4: report.table_4_footprint,
}
_FIGURES: Dict[int, Callable[[], "report.Artifact"]] = {
    1: report.figure_1_detection_latency,
    2: report.figure_2_overhead,
    3: report.figure_3_resolution_latency,
    4: report.figure_4_interception,
}


#: Output sinks by flag; each file's format follows its suffix.
_SINKS = {
    "--trace-out": "trace the run and write its event log with frame "
                   "provenance to PATH: JSONL for a .jsonl suffix, else a "
                   "Chrome trace (Perfetto-loadable)",
    "--metrics-out": "write the metrics registry to PATH: a JSON snapshot "
                     "for a .json suffix, else Prometheus text",
    "--profile-out": "sample the run with the wall-clock profiler and write "
                     "collapsed stacks (flamegraph input) to PATH",
    "--telemetry-out": "stream a live JSONL time series of the run to PATH",
}


def _add_sinks(parser: argparse.ArgumentParser, *flags: str) -> None:
    for flag in flags:
        parser.add_argument(flag, default=None, metavar="PATH", help=_SINKS[flag])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'An Analysis on the Schemes for Detecting and "
            "Preventing ARP Cache Poisoning Attacks' (ICDCSW 2007)"
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-schemes", help="list the analyzed defense schemes")

    table = sub.add_parser("table", help="regenerate Table 1-4")
    table.add_argument("number", type=int, choices=sorted(_TABLES))
    table.add_argument("--csv", action="store_true", help="emit CSV")

    figure = sub.add_parser("figure", help="regenerate Figure 1-4")
    figure.add_argument("number", type=int, choices=sorted(_FIGURES))
    figure.add_argument("--csv", action="store_true", help="emit CSV")

    run = sub.add_parser(
        "run",
        help="run one experiment of any kind once, with optional trace, "
             "metrics, profile and telemetry sinks",
    )
    run.add_argument("kind", choices=sorted(api.KINDS), metavar="KIND",
                     help=f"experiment kind: {', '.join(sorted(api.KINDS))}")
    run.add_argument(
        "--scheme", default=None, type=_scheme_spec, metavar="SPEC",
        help="defense to install: a scheme key or a '+'-joined stack "
             "such as dai+arpwatch (default: none)",
    )
    run.add_argument(
        "--set", action="append", default=[], dest="settings",
        metavar="KEY=VALUE",
        help="one setting (repeatable): a variant key of KIND or 'faults' "
             "sets the variant, any other ScenarioConfig field (seed, "
             "n_hosts, attack_duration, ...) the scenario",
    )
    _add_sinks(run, "--trace-out", "--metrics-out", "--profile-out",
               "--telemetry-out")

    camp = sub.add_parser(
        "campaign",
        help="run a parallel multi-seed experiment sweep with caching",
    )
    camp.add_argument(
        "--experiment", default="effectiveness", choices=sorted(api.KINDS),
        help="which measurement to sweep (default: effectiveness)",
    )
    camp.add_argument(
        "--schemes", "--scheme", default="all",
        help="comma-separated scheme specs — registry keys or '+'-joined "
             "stacks like dai+arpwatch; 'none' is the no-defense baseline, "
             "'all' sweeps the whole registry (default: all)",
    )
    camp.add_argument(
        "--techniques", default="reply",
        help="comma-separated poisoning techniques (effectiveness only)",
    )
    camp.add_argument(
        "--rates", default="1.0",
        help="comma-separated poison rates in pps (detection-latency only)",
    )
    camp.add_argument(
        "--fail-modes", default="open,closed",
        help="comma-separated controller fail modes to sweep "
             "(controller-failover only; default: open,closed)",
    )
    camp.add_argument("--seeds", type=_positive_int, default=5,
                      help="independent trials per grid cell")
    camp.add_argument("--root-seed", type=int, default=7)
    camp.add_argument("--jobs", type=_positive_int, default=1,
                      help="worker processes (1 = in-process serial)")
    camp.add_argument("--hosts", type=_positive_int, default=4,
                      help="LAN size of the sweep scenario")
    camp.add_argument("--duration", type=float, default=12.0,
                      help="attack/observation duration per trial (seconds)")
    camp.add_argument("--timeout", type=float, default=300.0,
                      help="per-task wall-clock budget (parallel mode)")
    camp.add_argument("--retries", type=int, default=1,
                      help="extra attempts after a task failure")
    camp.add_argument("--cache-dir", default=".repro_cache",
                      help="result cache directory (default: .repro_cache)")
    camp.add_argument("--no-cache", action="store_true",
                      help="always recompute; do not read or write the cache")
    camp.add_argument(
        "--faults", action="append", default=None, type=_fault_spec,
        metavar="SPEC",
        help="add one fault level to the sweep grid (repeatable); each "
             "SPEC is a compact impairment spec like loss=0.05,jitter=2ms, "
             "or 'none' for the clean-LAN level — fault specs contain "
             "commas, hence one flag per level",
    )
    camp.add_argument(
        "--traces", action="append", default=None, type=_trace_spec,
        metavar="SPEC",
        help="add one trace to the sweep grid (replay experiment only, "
             "repeatable); each SPEC is a replay source spec like "
             "pcap:capture.pcap or synthetic:rate=50k,churn=0.2 — trace "
             "specs contain commas, hence one flag per trace",
    )
    camp.add_argument(
        "--variant", action="append", default=None, dest="variant_overrides",
        metavar="KEY=VALUE",
        help="override one variant-grid key across every cell (repeatable); "
             "numeric-looking values parse as numbers — e.g. for "
             "campus-churn: --variant hosts_per_leaf=50 --variant shards=2",
    )
    camp.add_argument("--csv", action="store_true", help="emit CSV")
    _add_sinks(camp, "--metrics-out", "--telemetry-out")
    camp.add_argument(
        "--telemetry-cadence", type=int, default=2000, metavar="N",
        help="snapshot every N simulator events (default: 2000)",
    )
    camp.add_argument(
        "--heartbeat-dir", default=None, metavar="DIR",
        help="enable the run-health watchdog: workers write heartbeat "
             "files to DIR, stalls are counted and reported (default: "
             "<cache-dir>/heartbeats when --jobs > 1 and caching is on, "
             "else off)",
    )
    camp.add_argument(
        "--stall-after", type=float, default=10.0, metavar="SECS",
        help="seconds of frozen heartbeat or sim-clock before a worker "
             "is graded stalled (default: 10)",
    )

    top = sub.add_parser(
        "top",
        help="live per-worker progress view over campaign heartbeat files",
    )
    top.add_argument(
        "--heartbeat-dir", default=".repro_cache/heartbeats", metavar="DIR",
        help="directory the campaign writes heartbeats to "
             "(default: .repro_cache/heartbeats)",
    )
    top.add_argument(
        "--stall-after", type=float, default=10.0, metavar="SECS",
        help="grade a worker stalled after this long without progress",
    )
    top.add_argument(
        "--watch", type=float, default=None, metavar="SECS",
        help="refresh every SECS seconds instead of printing once",
    )
    top.add_argument(
        "--iterations", type=int, default=None, metavar="N",
        help="with --watch: stop after N refreshes (default: forever)",
    )

    rec = sub.add_parser(
        "recommend", help="rank schemes for a described deployment"
    )
    rec.add_argument("--static-addressing", action="store_true",
                     help="no DHCP on this network")
    rec.add_argument("--no-host-changes", action="store_true",
                     help="hosts cannot be modified (BYOD/guest)")
    rec.add_argument("--managed-switches", action="store_true")
    rec.add_argument("--infrastructure", action="store_true",
                     help="new servers/monitor stations can be deployed")
    rec.add_argument("--max-cost", default="high",
                     choices=["free", "low", "medium", "high"])
    rec.add_argument("--prevention", action="store_true",
                     help="require prevention, not just detection")

    analyze = sub.add_parser(
        "analyze",
        help="replay a pcap frame by frame through the passive hybrid "
             "detector and snort-arpspoof, and summarize what they found",
    )
    analyze.add_argument("pcap", help="path to an Ethernet pcap")
    analyze.add_argument(
        "--scan-threshold", type=int, default=16,
        help="distinct ARP targets per window that count as a sweep",
    )

    replay = sub.add_parser(
        "replay",
        help="stream a frame trace through a detection scheme's monitor tap",
    )
    replay_src = replay.add_mutually_exclusive_group(required=True)
    replay_src.add_argument(
        "--pcap", default=None, metavar="PATH",
        help="replay an Ethernet pcap capture from PATH",
    )
    replay_src.add_argument(
        "--synthetic", default=None, metavar="PARAMS", nargs="?", const="",
        help="replay a seeded synthetic trace; PARAMS is the source "
             "spec tail, e.g. rate=500k,frames=1m,churn=0.2 (omit for "
             "the default mix)",
    )
    replay.add_argument(
        "--rate", default=None, metavar="FPS",
        help="synthetic trace timestamp rate in frames/sec, with k/m "
             "suffixes (shorthand for rate= in --synthetic PARAMS)",
    )
    replay.add_argument(
        "--scheme", default=None, type=_scheme_spec, metavar="SPEC",
        help="defense to attach to the replay station — monitor-placed "
             "schemes only (default: none, measure raw ingest)",
    )
    replay.add_argument(
        "--window", type=int, default=1024, metavar="N",
        help="bounded in-flight window in frames; memory stays O(N) "
             "regardless of trace size.  It bounds memory only: every "
             "frame is delivered at its own timestamp (default: 1024)",
    )
    replay.add_argument(
        "--drain", type=float, default=0.0, metavar="SECS",
        help="run scheme timers SECS trace-seconds past the last frame",
    )
    replay.add_argument("--seed", type=int, default=7)
    _add_sinks(replay, "--metrics-out", "--telemetry-out")

    bench = sub.add_parser(
        "bench", help="run the bench suite and its regression gate"
    )
    bench.add_argument(
        "--check", action="store_true",
        help="fail (exit 1) if any benchmark regresses below the baseline",
    )
    bench.add_argument(
        "--update", action="store_true",
        help="write the current results as the new baseline (refused "
        "unless the run produced every suite key)",
    )
    bench.add_argument(
        "--baseline", default=None,
        help="baseline JSON path (default: BENCH.json at the repo root)",
    )
    bench.add_argument(
        "--quick", action="store_true",
        help="smaller iteration counts (CI smoke mode; full-only keys "
        "are skipped)",
    )
    bench.add_argument(
        "--tolerance", type=float, default=None,
        help="fraction of baseline throughput that still passes (default 0.5)",
    )
    bench.add_argument(
        "--no-batch", action="store_true",
        help="disable coalesced event dispatch for this run (gates the "
        "per-frame data plane; batch-only keys are skipped)",
    )
    return parser


def _cmd_list_schemes(out) -> int:
    for profile in all_profiles():
        out.write(
            f"{profile.key:15s} {profile.kind:10s} @{profile.placement:12s} "
            f"{profile.display_name}\n"
        )
    return 0


def _cmd_artifact(args, out) -> int:
    registry = _TABLES if args.command == "table" else _FIGURES
    artifact = registry[args.number]()
    out.write((artifact.csv if args.csv else artifact.rendered) + "\n")
    return 0


def _campaign_grid(args):
    """Translate CLI flags into (schemes, variants, scenario overrides)."""
    kind = api.KINDS[args.experiment]
    if args.schemes == "all":
        keys = list(SCHEME_FACTORIES)
        schemes = keys if kind.requires_scheme else [None] + keys
    else:
        schemes = [
            None if key == "none" else key
            for key in args.schemes.split(",")
            if key
        ]

    scenario = {}
    if args.experiment == "effectiveness":
        variants = [{"technique": t} for t in args.techniques.split(",") if t]
        scenario = {"n_hosts": args.hosts, "attack_duration": args.duration,
                    "warmup": 3.0, "cooldown": 2.0}
    elif args.experiment == "detection-latency":
        variants = [{"poison_rate": float(r)} for r in args.rates.split(",") if r]
        scenario = {"n_hosts": args.hosts, "attack_duration": args.duration,
                    "warmup": 3.0, "cooldown": 2.0}
    elif args.experiment == "false-positives":
        variants = [{"duration": max(args.duration, 60.0)}]
        scenario = {"n_hosts": args.hosts}
    elif args.experiment in ("overhead", "footprint"):
        variants = [{"n_hosts": args.hosts}]
    elif args.experiment == "controller-failover":
        variants = [{"fail_mode": m} for m in args.fail_modes.split(",") if m]
        scenario = {"n_hosts": args.hosts, "attack_duration": args.duration,
                    "cooldown": 2.0}
    elif args.experiment == "dhcp-starvation":
        variants = [{"duration": args.duration}]
        scenario = {"n_hosts": args.hosts}
    elif args.experiment == "replay":
        if args.schemes == "all":
            # Only monitor-placed schemes can attach to a replay station
            # (a trace has no switch fabric or protected hosts).
            schemes = [None] + [
                p.key for p in all_profiles() if p.placement == "monitor"
            ]
        # With a --traces sweep the axis supplies each cell's trace; the
        # default variant would collide with it (axis-vs-variant check).
        variants = [] if getattr(args, "traces", None) else list(
            kind.default_variants
        )
    else:  # resolution-latency, campus-churn
        variants = list(kind.default_variants)

    if getattr(args, "variant_overrides", None):
        overrides = dict(
            _parse_variant_override(item) for item in args.variant_overrides
        )
        unknown = set(overrides) - set(kind.variant_keys)
        if unknown:
            raise SystemExit(
                f"--variant keys {sorted(unknown)} not valid for "
                f"{args.experiment!r}; allowed: {sorted(kind.variant_keys)}"
            )
        variants = [{**dict(v), **overrides} for v in variants] or [overrides]
        # Overrides collapse cells that only differed on an overridden key.
        deduped = []
        for v in variants:
            if v not in deduped:
                deduped.append(v)
        variants = deduped
    return tuple(schemes), tuple(variants), scenario


def _usage_error(message: str) -> NoReturn:
    """Exit 2 with ``message`` on stderr, the way argparse rejects a flag."""
    sys.stderr.write(f"repro: error: {message}\n")
    raise SystemExit(2)


def _parse_variant_override(item: str):
    """``key=value`` with int/float coercion (``shards=2`` -> 2)."""
    key, sep, raw = item.partition("=")
    if not sep or not key:
        _usage_error(f"expected KEY=VALUE, got {item!r}")
    for cast in (int, float):
        try:
            return key, cast(raw)
        except ValueError:
            continue
    return key, raw


@contextmanager
def _sinks(args, out, cadence: int = 2000) -> Iterator[None]:
    """Run the block under every output sink ``args`` names.

    ``--trace-out`` traces the block, ``--profile-out`` samples it and
    ``--telemetry-out`` streams its simulators' time series; after the
    block each sink writes its file (``--metrics-out`` the registry as
    the block left it, with the perf counters counting the block only)
    and its ``# `` summary lines to ``out``.
    """
    from repro.obs import REGISTRY, TRACER, live, to_chrome_trace, to_jsonl, to_prometheus
    from repro.perf import PERF

    trace_out = getattr(args, "trace_out", None)
    profile_out = getattr(args, "profile_out", None)
    with ExitStack() as stack:
        if args.metrics_out:
            # Else the GC runs would count from interpreter start, and the
            # modules imported before the block would move them.
            PERF.reset()
        if args.telemetry_out:
            stack.enter_context(live.session(live.TelemetryRecorder(
                cadence_events=cadence, out=args.telemetry_out
            )))
        if profile_out:
            from repro.obs.profiler import SamplingProfiler

            profiler = stack.enter_context(SamplingProfiler())
        if trace_out:
            TRACER.reset()
            TRACER.enable()
            stack.callback(TRACER.disable)
            capture_drops_before = PERF.trace_drops
        yield

    if trace_out:
        events = list(TRACER.events)
        provenance = TRACER.provenance
        resolved = alerts = 0
        for event in events:
            if event.name == "scheme.alert":
                alerts += 1
                fid = event.attrs.get("frame")
                origin = provenance.origin_of(fid) if fid is not None else None
                if origin is not None and origin.startswith("attack:"):
                    resolved += 1
        Path(trace_out).write_text(
            to_jsonl(events) if trace_out.endswith(".jsonl")
            else json.dumps(to_chrome_trace(events, provenance.frames))
        )
        out.write(
            f"# trace: {len(events)} events ({TRACER.dropped} span-ring dropped), "
            f"{len(provenance)} frames tracked, "
            f"{PERF.trace_drops - capture_drops_before} frame-capture dropped "
            f"(PERF.trace_drops={PERF.trace_drops}) in {trace_out}\n"
            f"# alerts: {alerts} raised, {resolved} with provenance "
            f"resolving to an attack injection\n"
        )
    if profile_out:
        Path(profile_out).write_text(profiler.collapsed())
        attribution = ", ".join(
            f"{name} {share:.1%}" for name, share in profiler.attribution().items()
        )
        # The sampler needs the GIL to wake, so it samples less often
        # than its nominal interval: report the rate it achieved.
        samples, span = profiler.sample_count, profiler.elapsed
        achieved = f"one per {span * 1000 / samples:.1f}ms; " if samples else ""
        out.write(
            f"# profile: {samples} samples over {span:.3f}s ({achieved}"
            f"nominal {profiler.interval * 1000:.1f}ms) in {profile_out}\n"
            f"# subsystems: {attribution or 'none'}\n"
            f"# attributed: {profiler.attributed_fraction():.1%} of samples "
            f"to named subsystems\n"
        )
    if args.telemetry_out:
        # Lines in the file, not the recorder's count: with --jobs > 1
        # fork-workers wrote their own interleaved series to the same path.
        path = Path(args.telemetry_out)
        snapshots = (
            sum(1 for line in path.read_text().splitlines() if line.strip())
            if path.exists()
            else 0
        )
        out.write(
            f"# telemetry: {snapshots} snapshots in {args.telemetry_out} "
            f"(cadence {cadence} events)\n"
        )
    if args.metrics_out:
        snapshot = REGISTRY.snapshot()
        Path(args.metrics_out).write_text(
            json.dumps(snapshot, indent=2, sort_keys=True)
            if args.metrics_out.endswith(".json")
            else to_prometheus(snapshot)
        )
        out.write(
            f"# metrics: {len(snapshot['metrics'])} families, "
            f"{len(snapshot['collectors'])} collector blocks in "
            f"{args.metrics_out}\n"
        )


def _run_task(args):
    """The one campaign task ``repro run`` executes: trial 0 of its cell.

    Each ``--set`` key goes to the variant when the kind sweeps it (or it
    is ``faults``), to the scenario when it is another
    :class:`ScenarioConfig` field, cast to that field's type; ``seed`` is
    the task's seed, verbatim.
    """
    from repro.campaign.spec import CampaignTask, check_variant

    kind = api.KINDS[args.kind]
    scenario_keys = {f.name for f in fields(ScenarioConfig)}
    variant: Dict[str, object] = {}
    scenario: Dict[str, object] = {}
    seed = ScenarioConfig.seed
    for item in args.settings:
        key, value = _parse_variant_override(item)
        if key in kind.variant_keys or key == "faults":
            variant[key] = value
            continue
        if key not in scenario_keys:
            _usage_error(
                f"--set {key!r} is not a setting of {kind.name!r}; variant "
                f"keys: {sorted([*kind.variant_keys, 'faults'])}; scenario "
                f"keys: {sorted(scenario_keys)}"
            )
        default = getattr(ScenarioConfig, key)
        text = str(value)
        if isinstance(default, bool):
            if text not in ("true", "false"):
                _usage_error(f"--set {key}={text!r}: expected true or false")
            value = text == "true"
        elif isinstance(default, (int, float)):
            try:
                value = type(default)(text)
            except ValueError:
                _usage_error(
                    f"--set {key}={text!r} is not a valid {type(default).__name__}"
                )
        else:  # strings, the fault spec and OS profiles (by name)
            value = text
        if key == "seed":
            seed = value
        else:
            scenario[key] = value
    try:
        check_variant(kind, variant)
    except ExperimentError as exc:
        _usage_error(str(exc))
    return CampaignTask(
        experiment=kind.name, scheme=args.scheme, variant=variant,
        scenario=scenario, trial=0, seed=seed,
    )


def _cmd_run(args, out) -> int:
    from repro.campaign.spec import resolve_task
    from repro.errors import PcapError, ReplayError, SchemeError

    task = _run_task(args)
    try:
        kind, config, params = resolve_task(task)
        with _sinks(args, out):
            result = api.run(kind.name, config, scheme=task.scheme, **params)
            # The result precedes the sinks' summary lines.
            out.write(json.dumps(result.to_dict(), sort_keys=True) + "\n")
    except (ExperimentError, PcapError, ReplayError, SchemeError) as exc:
        _usage_error(f"run: {exc}")
    return 0


def _cmd_campaign(args, out) -> int:
    from repro.campaign import CampaignSpec, ResultCache, run_campaign

    schemes, variants, scenario = _campaign_grid(args)
    spec = CampaignSpec(
        experiment=args.experiment,
        schemes=schemes,
        variants=variants,
        seeds=args.seeds,
        root_seed=args.root_seed,
        scenario=scenario,
        faults=tuple(args.faults) if args.faults else (None,),
        traces=tuple(args.traces) if getattr(args, "traces", None) else (None,),
    )
    cache = None if args.no_cache else ResultCache(args.cache_dir)

    # Parallel runs get the watchdog by default, living inside the cache
    # directory; --no-cache promises to leave no droppings behind, so
    # there heartbeats stay opt-in via an explicit --heartbeat-dir.
    heartbeat_dir = args.heartbeat_dir
    if heartbeat_dir is None and args.jobs > 1 and not args.no_cache:
        heartbeat_dir = str(Path(args.cache_dir) / "heartbeats")

    with _sinks(args, out, cadence=args.telemetry_cadence):
        campaign = run_campaign(
            spec,
            jobs=args.jobs,
            cache=cache,
            retries=args.retries,
            task_timeout=args.timeout,
            heartbeat_dir=heartbeat_dir,
            stall_after=args.stall_after,
        )
        if args.metrics_out:
            from repro.campaign.aggregate import publish_metrics

            publish_metrics(campaign)
        _write_campaign(args, out, campaign)
    return 1 if campaign.failures else 0


def _write_campaign(args, out, campaign) -> None:
    """The aggregate table, then the run's ``# `` status lines."""
    from repro.campaign import to_artifact
    from repro.obs import REGISTRY
    from repro.perf import summary

    artifact = to_artifact(campaign)
    out.write((artifact.csv if args.csv else artifact.rendered) + "\n")
    out.write(
        f"# campaign: {campaign.total_tasks} tasks, "
        f"{campaign.cache_hits} cache hits "
        f"({campaign.cache_hit_rate:.0%}), {campaign.executed} executed, "
        f"{len(campaign.failures)} failed, jobs={campaign.jobs}, "
        f"{campaign.elapsed:.2f}s\n"
    )
    # Worker counters are shipped back as _obs deltas and merged into the
    # parent registry's perf section — so with --jobs > 1 this line
    # reflects the whole campaign, not just the coordinator.
    if campaign.worker_metrics_merged:
        scope = f"merged from {campaign.worker_metrics_merged} worker tasks"
    elif campaign.jobs == 1:
        scope = "in-process"
    else:
        scope = "coordinator only"
    out.write(f"# perf ({scope}): {summary(REGISTRY.collect('perf'))}\n")
    if campaign.heartbeat_dir is not None:
        from collections import Counter as _Counter

        states = _Counter(h.state for h in campaign.worker_health)
        state_text = (
            " ".join(f"{k}={v}" for k, v in sorted(states.items())) or "none"
        )
        out.write(
            f"# watchdog: {len(campaign.worker_health)} workers ({state_text}), "
            f"{campaign.worker_stalls} stall episodes "
            f"(watchdog_stalls_total), heartbeats in {campaign.heartbeat_dir}\n"
        )
    for failure in campaign.failures:
        out.write(
            f"# FAILED {failure.task.scheme_label} "
            f"{failure.task.cell[1]} trial={failure.task.trial} "
            f"after {failure.attempts} attempt(s): {failure.error}\n"
        )


def _cmd_top(args, out) -> int:
    import time as _time

    from repro.obs.watchdog import Watchdog, render_health

    directory = Path(args.heartbeat_dir)
    watchdog = Watchdog(directory, stall_after=args.stall_after)
    iteration = 0
    while True:
        healths = watchdog.scan()
        if not directory.is_dir():
            out.write(f"# no heartbeat directory at {directory}\n")
            return 1
        out.write(render_health(healths) + "\n")
        out.write(
            f"# watchdog: {len(healths)} workers, "
            f"{watchdog.stall_episodes} stall episodes\n"
        )
        iteration += 1
        if args.watch is None:
            return 0
        if args.iterations is not None and iteration >= args.iterations:
            return 0
        _time.sleep(args.watch)
        out.write("\n")


def _cmd_bench(args, out) -> int:
    import repro.sim.simulator as _simulator
    from repro.obs.registry import REGISTRY, subtract_counts
    from repro.perf import bench, summary

    baseline_path = (
        Path(args.baseline) if args.baseline is not None else bench.BASELINE_PATH
    )
    baseline = (
        bench.load_baseline(baseline_path) if baseline_path.exists() else None
    )
    if args.check and baseline is None:
        out.write(f"# no baseline at {baseline_path}; run with --update\n")
        return 1

    perf_before = REGISTRY.collect("perf")
    # --no-batch is process-wide for the suite's run: every Simulator it
    # builds inherits the default, which is restored afterwards.
    batching = _simulator.DEFAULT_BATCHING
    if args.no_batch:
        _simulator.DEFAULT_BATCHING = False
    try:
        results = bench.run_suite(quick=args.quick)
    finally:
        _simulator.DEFAULT_BATCHING = batching
    out.write(bench.format_results(results, baseline) + "\n")
    perf = subtract_counts(REGISTRY.collect("perf"), perf_before)
    out.write(f"# perf: {summary(perf)}\n")

    if args.update:
        skipped = sorted(set(bench.SUITE) - set(results))
        if skipped:
            out.write(f"# refusing --update: the run skipped {', '.join(skipped)}; "
                      "the baseline must carry every suite key\n")
            return 2
        bench.write_baseline(baseline_path, results)
        out.write(f"# baseline written to {baseline_path}\n")
        return 0
    if args.check:
        tolerance = (
            args.tolerance if args.tolerance is not None
            else bench.DEFAULT_TOLERANCE
        )
        expected = bench.expected_keys(args.quick, batching=not args.no_batch)
        failures = bench.check(results, baseline, expected, tolerance)
        for failure in failures:
            out.write(f"# REGRESSION {failure}\n")
        if failures:
            return 1
        out.write(f"# bench check passed (tolerance {tolerance})\n")
    return 0


def _cmd_replay(args, out) -> int:
    from repro.errors import PcapError, ReplayError, SchemeError

    if args.pcap is not None:
        if args.rate is not None:
            raise SystemExit("--rate only applies to --synthetic traces")
        spec = f"pcap:{args.pcap}"
    else:
        tail = args.synthetic or ""
        if args.rate is not None:
            if "rate=" in tail:
                raise SystemExit(
                    "give the rate either as --rate or as rate= inside "
                    "--synthetic PARAMS, not both"
                )
            tail = f"rate={args.rate}" + (f",{tail}" if tail else "")
        spec = f"synthetic:{tail}"

    try:
        with _sinks(args, out):
            result = api.run(
                "replay",
                ScenarioConfig(seed=args.seed),
                scheme=args.scheme,
                source=spec,
                window=args.window,
                drain=args.drain,
            )
            out.write(
                f"replay: {result.frames} frames ({result.bytes} bytes) "
                f"from {result.source}\n"
                f"  scheme={result.scheme} alerts={result.alerts} "
                f"delivered={result.delivered} "
                f"window={result.window} peak_in_flight={result.peak_in_flight}\n"
                f"  {result.frames_per_sec:,.0f} frames/sec "
                f"(wall {result.wall_seconds:.3f}s, "
                f"trace span {result.sim_seconds:.3f}s)\n"
            )
    except (ReplayError, SchemeError, PcapError) as exc:
        raise SystemExit(f"replay: {exc}") from None
    return 0


def main(argv: Optional[list[str]] = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    if args.command == "list-schemes":
        return _cmd_list_schemes(out)
    if args.command in ("table", "figure"):
        return _cmd_artifact(args, out)
    if args.command == "run":
        return _cmd_run(args, out)
    if args.command == "campaign":
        return _cmd_campaign(args, out)
    if args.command == "top":
        return _cmd_top(args, out)
    if args.command == "bench":
        return _cmd_bench(args, out)
    if args.command == "replay":
        return _cmd_replay(args, out)
    if args.command == "analyze":
        from repro.errors import PcapError
        from repro.replay.analyze import analyze

        try:
            report = analyze(f"pcap:{args.pcap}", scan_threshold=args.scan_threshold)
        except PcapError as exc:
            raise SystemExit(f"analyze: {exc}") from None
        out.write(report.render() + "\n")
        return 0
    if args.command == "recommend":
        from repro.core.recommend import Deployment, recommend

        env = Deployment(
            uses_dhcp=not args.static_addressing,
            can_modify_hosts=not args.no_host_changes,
            has_managed_switches=args.managed_switches,
            can_run_infrastructure=args.infrastructure,
            max_cost=args.max_cost,
            want_prevention=args.prevention,
        )
        out.write(recommend(env).render() + "\n")
        return 0
    return 2  # pragma: no cover - argparse enforces choices


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
