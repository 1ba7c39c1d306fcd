"""Which program classes make up which layer, and what each layer counts.

Layers are named after the program's modules.  :func:`install` patches
every layer boundary through a :class:`~tracer.LayerTracer`;
:func:`layer_metrics` turns the tracer's totals into the per-layer
metric set ``BENCHMARK.json`` names, and :func:`cross_check` compares
traced counts with the counters the program keeps itself.
"""

from __future__ import annotations

import importlib
from typing import Dict, List, Tuple

from tracer import LayerTracer

#: Registry keys of every scheme; each gets a ``schemes.<key>.self_s``.
SCHEME_KEYS = (
    "static-arp",
    "anticap",
    "antidote",
    "s-arp",
    "tarp",
    "port-security",
    "dai",
    "arpwatch",
    "snort-arpspoof",
    "active-probe",
    "middleware",
    "hybrid",
    "darpi",
    "sdn-arp-guard",
)

#: Self-time layers, in report order.  ``schemes`` is split per key.
LAYERS = (
    "sim",
    "partition",
    "link",
    "faults",
    "switch",
    "cam",
    "host",
    "arp_cache",
    "hooks",
    "schemes",
    "codec",
    "crypto",
    "trace",
    "registry",
    "replay",
    "pcap",
)


def _inc(metric: str, amount=1):
    def count(tracer, args, *_):
        tracer.counts[metric] += amount

    return count


def _inc_len(metric: str, index: int):
    def count(tracer, args, *_):
        tracer.counts[metric] += len(args[index])

    return count


def _both(first, second):
    def count(tracer, args, *rest):
        first(tracer, args, *rest)
        second(tracer, args, *rest)

    return count


def _track(kind: str):
    def keep(tracer, args, _result):
        tracer.instances[kind].append(args[0])

    return keep


def _frames_in(plane: str, batch_caller: str):
    """Per-frame entry: a frame in, unless the batch entry unrolled it."""

    def count(tracer, args):
        tracer.counts[f"{plane}.per_frame"] += 1
        if tracer.caller() != batch_caller:
            tracer.counts[f"{plane}.frames"] += 1

    return count


def _scheme_layer(tracer, args) -> str:
    """``schemes.<key>`` of the scheme instance a method runs on."""
    profile = getattr(args[0], "profile", None) if args else None
    key = getattr(profile, "key", None)
    if key in SCHEME_KEYS:
        return f"schemes.{key}"
    if key is not None:
        return "schemes.stack"  # a "+"-joined stack spec
    return _helper_layer(tracer, args)


def _helper_layer(tracer, args) -> str:
    """Scheme helper objects are charged to the scheme that called them."""
    caller = tracer.caller_layer()
    if caller is not None and caller.startswith("schemes."):
        return caller
    return "schemes.misc"


def _sdn_layer(tracer, args) -> str:
    return "schemes.sdn-arp-guard"


def _deliver_batch_before(tracer, args) -> None:
    # A batch handed over by the event loop is a coalesced flush; the
    # replay engine also calls deliver_batch, from its own layer.
    if tracer.caller() == "Simulator._fire":
        tracer.counts["sim.coalesced_items"] += len(args[1])


def _alert_after(tracer, args, result) -> None:
    if result is not None:
        tracer.counts["schemes.alerts"] += 1


def _mod(name: str):
    return importlib.import_module(name)


def _classes(module) -> List[type]:
    return [
        obj
        for obj in vars(module).values()
        if isinstance(obj, type) and obj.__module__ == module.__name__
    ]


def install(tracer: LayerTracer) -> None:
    """Patch every layer boundary of the program through ``tracer``."""
    sim = _mod("repro.sim.simulator")
    part = _mod("repro.sim.partition")

    def window_run(tracer, args) -> None:
        if isinstance(args[0], part.Partition):
            tracer.counts["partition.window_runs"] += 1

    tracer.patch_class(
        sim.Simulator,
        "sim",
        hooks={
            "__init__": (None, _track("sim")),
            "_fire": (_inc("sim.events"), None),
            "run": (window_run, None),
        },
    )

    tracer.patch_class(
        part.ShardedSimulator,
        "partition",
        hooks={"__init__": (None, _track("sharded"))},
    )
    tracer.patch_class(part.Partition, "partition")
    tracer.patch_class(
        part.Boundary,
        "partition",
        hooks={
            "carry": (_inc("partition.envelopes"), None),
            "carry_batch": (_inc_len("partition.envelopes", 2), None),
        },
    )

    device = _mod("repro.l2.device")
    tracer.patch_class(
        device.Link,
        "link",
        hooks={
            "carry": (_both(_inc("link.calls"), _inc("link.items")), None),
            "carry_batch": (_both(_inc("link.calls"), _inc_len("link.items", 2)), None),
        },
    )
    tracer.patch_class(
        device.Port,
        "link",
        hooks={"deliver_batch": (_deliver_batch_before, None)},
    )

    for cls in _classes(_mod("repro.faults.inject")):
        tracer.patch_class(
            cls, "faults", hooks={"__call__": (_inc("faults.items"), None)}
        )

    switch = _mod("repro.l2.switch")
    tracer.patch_class(
        switch.Switch,
        "switch",
        hooks={
            "__init__": (None, _track("switch")),
            "on_frame": (_frames_in("switch", "Switch.on_frame_batch"), None),
            "on_frame_batch": (_inc_len("switch.frames", 2), None),
        },
    )
    cam_ops = (
        "learn", "learn_wire", "lookup", "lookup_wire", "lookup_batch",
        "expire", "add_static", "flush", "flush_port", "entries_on_port",
    )
    tracer.patch_class(
        _mod("repro.l2.cam").CamTable,
        "cam",
        only=cam_ops,
        hooks={name: (_inc("cam.ops"), None) for name in cam_ops},
    )

    host = _mod("repro.stack.host")
    tracer.patch_class(
        host.Host,
        "host",
        hooks={
            "__init__": (None, _track("host")),
            "on_frame": (_frames_in("host", "Host.on_frame_batch"), None),
            "on_frame_batch": (_inc_len("host.frames", 2), None),
        },
    )
    for name in (
        "repro.stack.router",
        "repro.stack.dhcp_client",
        "repro.stack.dhcp_server",
        "repro.stack.tcp_session",
    ):
        for cls in _classes(_mod(name)):
            tracer.patch_class(cls, "host")
    arp_cache = _mod("repro.stack.arp_cache")
    tracer.patch_class(
        arp_cache.ArpCache,
        "arp_cache",
        hooks={
            name: (_inc("arp_cache.ops"), None)
            for name, fn in vars(arp_cache.ArpCache).items()
            if callable(fn) and not name.startswith("__")
        },
    )

    hooks = _mod("repro.hooks")
    dispatch = ("emit", "verdict", "allow", "transform", "emit_batch", "transform_batch")
    tracer.patch_class(
        hooks.HookPoint,
        "hooks",
        hooks={name: (_inc("hooks.dispatches"), None) for name in dispatch},
    )
    tracer.patch_class(hooks.Pipeline, "hooks")
    tracer.patch_class(hooks.TeardownStack, "hooks")

    scheme_base = _mod("repro.schemes.base").Scheme
    for name in sorted(_scheme_modules(_mod("repro.schemes"))):
        for cls in _classes(_mod(name)):
            if issubclass(cls, scheme_base):
                tracer.patch_class(
                    cls,
                    _scheme_layer,
                    hooks={"raise_alert": (None, _alert_after)},
                )
            elif cls.__name__ not in ("Severity", "Coverage", "Alert", "SchemeProfile"):
                tracer.patch_class(cls, _helper_layer)
    for name in ("repro.sdn.agent", "repro.sdn.controller", "repro.sdn.flow_table"):
        for cls in _classes(_mod(name)):
            tracer.patch_class(cls, _sdn_layer)

    for name in (
        "repro.packets.ethernet",
        "repro.packets.arp",
        "repro.packets.ipv4",
        "repro.packets.icmp",
        "repro.packets.udp",
        "repro.packets.tcp",
        "repro.packets.dhcp",
        "repro.packets.vlan",
        "repro.packets.openflow",
    ):
        module = _mod(name)
        for cls in _classes(module):
            counted = {}
            for attr in vars(cls):
                if attr.startswith("decode"):
                    counted[attr] = (_inc("codec.decodes"), None)
                elif attr.startswith("encode"):
                    counted[attr] = (_inc("codec.encodes"), None)
            if cls.__name__ == "FrameView":  # the lazy receive-path decode
                counted["__init__"] = (_inc("codec.decodes"), None)
            only = tuple(counted) + (("lazy",) if "lazy" in vars(cls) else ())
            if only:
                tracer.patch_class(cls, "codec", only=only, hooks=counted)
    addresses = _mod("repro.net.addresses")
    for cls in _classes(addresses):
        tracer.patch_class(cls, "codec")

    keys = _mod("repro.crypto.keys")
    tracer.patch_class(keys.PrivateKey, "crypto", hooks={"sign": (_inc("crypto.signs"), None)})
    tracer.patch_class(keys.PublicKey, "crypto", hooks={"verify": (_inc("crypto.verifies"), None)})
    tracer.patch_class(keys.KeyPair, "crypto")
    tracer.patch_module_function(keys, "generate_keypair", "crypto")
    tracer.patch_module_function(keys, "_random_prime", "crypto")
    for name in ("repro.crypto.sign", "repro.crypto.lta", "repro.crypto.akd"):
        for cls in _classes(_mod(name)):
            tracer.patch_class(cls, "crypto")

    sim_trace = _mod("repro.sim.trace")
    tracer.patch_class(
        sim_trace.TraceRecorder,
        "trace",
        hooks={"record": (_inc("trace.records"), None)},
    )
    obs_trace = _mod("repro.obs.trace")
    tracer.patch_class(obs_trace.Tracer, "trace")
    tracer.patch_class(_mod("repro.obs.provenance").Provenance, "trace")

    registry = _mod("repro.obs.registry")
    for cls in _classes(registry):
        tracer.patch_class(
            cls,
            "registry",
            hooks={
                name: (_inc("registry.ops"), None)
                for name, fn in vars(cls).items()
                if callable(fn) and not name.startswith("__")
            },
        )

    engine = _mod("repro.replay.engine")
    tracer.patch_class(
        engine.ReplayEngine,
        "replay",
        hooks={"__init__": (None, _track("replay_engine"))},
    )
    tracer.patch_class(engine.ReplayLan, "replay")
    sources = _mod("repro.replay.sources")
    for cls in _classes(sources):
        tracer.patch_class(cls, "replay")
    tracer.patch_module_function(sources, "open_source", "replay")

    pcap = _mod("repro.analysis.pcap")
    tracer.patch_class(pcap.PcapWriter, "pcap")
    tracer.patch_module_function(pcap, "iter_pcap", "pcap", before=_inc("pcap.records"))


def _scheme_modules(package) -> List[str]:
    import pkgutil

    return [
        f"{package.__name__}.{info.name}"
        for info in pkgutil.iter_modules(package.__path__)
    ]


#: Per-layer metrics and their units, in the order they are printed.
def metric_units() -> List[Tuple[str, str]]:
    units: List[Tuple[str, str]] = [
        ("sim.events", "count"),
        ("sim.coalesced_items", "count"),
        ("sim.self_s", "s"),
        ("partition.window_runs", "count"),
        ("partition.envelopes", "count"),
        ("partition.self_s", "s"),
        ("link.calls", "count"),
        ("link.items", "count"),
        ("link.self_s", "s"),
        ("faults.items", "count"),
        ("faults.self_s", "s"),
        ("switch.frames", "count"),
        ("switch.per_frame_frac", "ratio"),
        ("switch.self_s", "s"),
        ("cam.ops", "count"),
        ("cam.self_s", "s"),
        ("host.frames", "count"),
        ("host.per_frame_frac", "ratio"),
        ("host.self_s", "s"),
        ("arp_cache.ops", "count"),
        ("arp_cache.self_s", "s"),
        ("hooks.dispatches", "count"),
        ("hooks.self_s", "s"),
    ]
    units += [(f"schemes.{key}.self_s", "s") for key in SCHEME_KEYS]
    units += [
        ("schemes.stack.self_s", "s"),
        ("schemes.misc.self_s", "s"),
        ("schemes.alerts", "count"),
        ("codec.decodes", "count"),
        ("codec.encodes", "count"),
        ("codec.self_s", "s"),
        ("crypto.signs", "count"),
        ("crypto.verifies", "count"),
        ("crypto.self_s", "s"),
        ("trace.records", "count"),
        ("trace.self_s", "s"),
        ("registry.ops", "count"),
        ("registry.self_s", "s"),
        ("replay.source_s", "s"),
        ("replay.self_s", "s"),
        ("replay.scheme_frac", "ratio"),
        ("replay.peak_in_flight", "frames"),
        ("pcap.records", "count"),
        ("pcap.self_s", "s"),
        ("other.self_s", "s"),
        ("traced.wall_s", "s"),
        ("traced.overhead_frac", "ratio"),
    ]
    return units


def layer_metrics(tracer: LayerTracer, wall: float, overhead: float) -> Dict[str, float]:
    """The per-layer metric values of one traced run."""
    counts = tracer.counts
    self_s = tracer.self_s
    values: Dict[str, float] = {}
    for name, unit in metric_units():
        if name.endswith(".self_s") and name != "other.self_s":
            values[name] = self_s.get(name[: -len(".self_s")], 0.0)
        elif unit == "count":
            values[name] = counts.get(name, 0)
    for plane in ("switch", "host"):
        frames = counts.get(f"{plane}.frames", 0)
        per_frame = counts.get(f"{plane}.per_frame", 0)
        values[f"{plane}.per_frame_frac"] = per_frame / frames if frames else 0.0
    source_s = sum(
        v for k, v in tracer.incl_s.items() if k.endswith("Source.__iter__")
    )
    values["replay.source_s"] = source_s
    replay_run = tracer.incl_s.get("ReplayEngine.run", 0.0)
    scheme_s = tracer.layer_self("schemes") + self_s.get("hooks", 0.0)
    values["replay.scheme_frac"] = scheme_s / replay_run if replay_run else 0.0
    values["replay.peak_in_flight"] = max(
        (e.peak_in_flight for e in tracer.instances.get("replay_engine", ())),
        default=0,
    )
    values["other.self_s"] = wall - tracer.total_self()
    values["traced.wall_s"] = wall
    values["traced.overhead_frac"] = overhead
    return values


def cross_check(tracer: LayerTracer, before: Dict[str, int], after: Dict[str, int]) -> List[str]:
    """Traced counts that disagree with the program's own counters.

    ``before``/``after`` are :func:`program_counters` snapshots taken
    around the traced region.  A mismatch means some call path reached a
    layer without passing a wrapper.
    """
    counts = tracer.counts
    inst = tracer.instances
    pairs = [
        (
            "sim.events",
            counts.get("sim.events", 0),
            sum(s.events_processed for s in inst.get("sim", ())),
        ),
        (
            "sim.coalesced_items",
            counts.get("sim.coalesced_items", 0),
            after["batched_items"] - before["batched_items"],
        ),
        (
            "partition.envelopes",
            counts.get("partition.envelopes", 0),
            sum(s.envelopes_routed for s in inst.get("sharded", ())),
        ),
        (
            "switch.frames",
            counts.get("switch.frames", 0),
            sum(p.rx_frames for s in inst.get("switch", ()) for p in s.ports),
        ),
        (
            "host.frames",
            counts.get("host.frames", 0),
            sum(p.rx_frames for h in inst.get("host", ()) for p in h.ports),
        ),
        (
            "schemes.alerts",
            counts.get("schemes.alerts", 0),
            after["alerts"] - before["alerts"],
        ),
    ]
    return [
        f"{name}: traced {traced} != program {program}"
        for name, traced, program in pairs
        if traced != program
    ]


def leftover_patches() -> List[str]:
    """Tracer wrappers still reachable from any loaded ``repro`` module."""
    import sys

    def is_wrapper(value) -> bool:
        value = getattr(value, "__func__", value)
        return getattr(value, "layer_wrapper", False) is True

    found = []
    for mod in list(sys.modules.values()):
        name = getattr(mod, "__name__", "") or ""
        if not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(mod).items()):
            if is_wrapper(value):
                found.append(f"{name}.{attr}")
            elif isinstance(value, type) and value.__module__ == name:
                found += [
                    f"{name}.{value.__name__}.{key}"
                    for key, member in vars(value).items()
                    if is_wrapper(member)
                ]
    return found


def program_counters() -> Dict[str, int]:
    """The program's own process-wide counters the cross-check reads."""
    from repro.obs.registry import REGISTRY
    from repro.perf import PERF

    family = REGISTRY.snapshot().get("metrics", {}).get("scheme_alerts_total") or {}
    alerts = int(sum(s["value"] for s in family.get("samples", ())))
    return {"batched_items": PERF.batched_items, "alerts": alerts}
