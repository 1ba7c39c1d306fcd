"""Fault-isolated hook pipeline — the one extension surface of the data plane.

Before this subsystem every layer grew its own ad-hoc hook list: hosts
kept ``arp_guards``/``frame_taps`` lists, the switch an
``ingress_filters`` list with duplicated traced/untraced dispatch loops,
monitor schemes appended raw callables to the monitor's taps, and every
scheme kept its own ``_teardowns`` list.  A single misbehaving hook
could abort a whole simulation — fatal for long unattended campaigns —
and nothing attributed the failure to the scheme that installed it.

:class:`HookPoint` unifies those surfaces:

* **Deterministic ordering** — hooks run by ``(priority, insertion
  order)``; lower priority first.  Re-running a scenario replays hooks
  in exactly the same order.
* **One-shot removal tokens** — :meth:`HookPoint.add` returns a callable
  that removes exactly the hook it installed, is idempotent, and is safe
  to call from *inside* a dispatch (mutation during iteration never
  skips or double-runs a hook: dispatch walks a snapshot and checks
  liveness per hook).
* **Fault isolation** — an exception from a hook is caught, counted in
  :data:`repro.perf.PERF` (``hook_errors``) and the metrics registry
  (``hook_errors_total{point,scheme}``), attributed to the owning scheme
  (the ``_obs_scheme`` label set by ``Scheme._mark_hook``), and resolved
  per the hook point's policy: :data:`FAIL_OPEN` treats the hook as
  abstaining/allowing, :data:`FAIL_CLOSED` treats it as vetoing.
* **Zero cost when idle** — hot paths guard on the ``hooks`` snapshot
  tuple (``if point.hooks:``), the same cost as the old empty-list
  check, so ``repro bench --check`` stays flat with no schemes
  installed.
* **One observed dispatch** — :meth:`~HookPoint.emit`,
  :meth:`~HookPoint.verdict` and :meth:`~HookPoint.allow` keep plain
  loops for the unobserved run and hand off to one observed loop
  (``HookPoint._observed``) while the tracer is on; that loop wraps each
  hook decision in a ``scheme.inspect`` span carrying its verdict.
  Hook faults and teardown faults share one accounting path.

Dispatch modes match the calling conventions of the legacy surfaces:
:meth:`~HookPoint.emit` (notify-all: frame taps), :meth:`~HookPoint.verdict`
(first non-``None`` wins: ARP guards), :meth:`~HookPoint.allow`
(all-must-allow: ingress filters) and :meth:`~HookPoint.transform`
(value-rewriting chain: forward taps).  The batched data plane adds
opt-in batch modes — :meth:`~HookPoint.emit_batch` and
:meth:`~HookPoint.transform_batch` — which cost an idle pipeline one
truthiness check per *batch* instead of per frame, unroll per-frame
hooks transparently, and hand the whole batch to hooks registered with
``add(..., batch=True)``.  :class:`TeardownStack` gives
scheme teardown the same isolation guarantees; :class:`Pipeline` groups
the hook points of one device under its node label.
"""

from __future__ import annotations

import itertools
from contextlib import nullcontext
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.obs.registry import REGISTRY
from repro.obs.trace import TRACER
from repro.perf import PERF

__all__ = [
    "FAIL_OPEN",
    "FAIL_CLOSED",
    "Hook",
    "HookPoint",
    "Pipeline",
    "TeardownStack",
    "hook_errors_counter",
    "hook_drops_counter",
]

#: A raising hook abstains/allows — the simulation sees no defense.
FAIL_OPEN = "open"
#: A raising hook vetoes — the frame/packet is dropped.
FAIL_CLOSED = "closed"

_POLICIES = (FAIL_OPEN, FAIL_CLOSED)

#: Label used for hooks whose owner could not be determined.
UNLABELED = "unlabeled"

#: Dispatch modes of :meth:`HookPoint._observed`.
_EMIT, _VERDICT, _ALLOW = "emit", "verdict", "allow"

#: Stands in for a span around hooks that are not scheme inspections.
_NO_SPAN = nullcontext()


def hook_errors_counter():
    """The ``hook_errors_total{point,scheme}`` registry counter family."""
    return REGISTRY.counter(
        "hook_errors_total",
        "Hook exceptions isolated by the pipeline, by hook point and owning scheme",
        labels=("point", "scheme"),
    )


def hook_drops_counter():
    """The ``hook_drops_total{point,scheme}`` registry counter family."""
    return REGISTRY.counter(
        "hook_drops_total",
        "Frames/packets vetoed at a hook point, by hook point and vetoing scheme",
        labels=("point", "scheme"),
    )


def _record_fault(
    point: str,
    node: Optional[str],
    scheme: str,
    exc: Exception,
    policy: str,
    frame: Optional[int],
) -> None:
    """Count and attribute one swallowed hook or teardown exception."""
    PERF.hook_errors += 1
    hook_errors_counter().labels(point=point, scheme=scheme).inc()
    if TRACER.enabled:
        TRACER.instant(
            "hook.error",
            point=point,
            node=node,
            scheme=scheme,
            error=type(exc).__name__,
            policy=policy,
            frame=frame,
        )


class Hook:
    """One installed hook: the callable plus its dispatch metadata."""

    __slots__ = ("fn", "priority", "owner", "seq", "active", "batch")

    def __init__(
        self,
        fn: Callable,
        priority: int,
        owner: Optional[str],
        seq: int,
        batch: bool = False,
    ) -> None:
        self.fn = fn
        self.priority = priority
        self.owner = owner
        self.seq = seq
        self.active = True
        #: Batch-aware hooks opt in to receiving a whole item batch in one
        #: call from the ``*_batch`` dispatch modes; per-frame hooks get an
        #: unrolled loop instead.
        self.batch = batch

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "active" if self.active else "removed"
        return f"Hook({self.owner or UNLABELED}, prio={self.priority}, {state})"


class HookPoint:
    """An ordered, fault-isolated list of hooks at one extension point.

    Parameters
    ----------
    name:
        The hook point's identity in metrics (``host.arp_guard``,
        ``switch.ingress``...).
    node:
        The owning device's name, used to label trace spans.
    policy:
        :data:`FAIL_OPEN` or :data:`FAIL_CLOSED` — what a raising hook
        means for the frame being judged.
    fallback_label:
        Scheme label for hooks installed without an owner (keeps the
        legacy trace span names: ``arp-guard``, ``ingress-filter``).
    """

    __slots__ = (
        "name",
        "node",
        "policy",
        "fallback_label",
        "_entries",
        "hooks",
        "_seq",
        "has_batch_hooks",
    )

    def __init__(
        self,
        name: str,
        node: Optional[str] = None,
        policy: str = FAIL_OPEN,
        fallback_label: Optional[str] = None,
    ) -> None:
        if policy not in _POLICIES:
            raise ValueError(f"unknown hook policy {policy!r}; use {_POLICIES}")
        self.name = name
        self.node = node
        self.policy = policy
        self.fallback_label = fallback_label or name
        self._entries: List[Hook] = []
        #: Snapshot tuple for hot paths: ``if point.hooks:`` is as cheap
        #: as the old empty-list check and is what dispatch iterates.
        self.hooks: Tuple[Hook, ...] = ()
        #: True when any installed hook opted into batch dispatch
        #: (precomputed so ``*_batch`` modes pick their path in O(1)).
        self.has_batch_hooks = False
        self._seq = itertools.count()

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def add(
        self,
        fn: Callable,
        priority: int = 0,
        owner: Optional[str] = None,
        batch: bool = False,
    ) -> Callable[[], None]:
        """Install ``fn``; returns a one-shot, idempotent removal token.

        ``owner`` attributes faults/drops to a scheme; when omitted the
        ``_obs_scheme`` label applied by ``Scheme._mark_hook`` is used
        (bound methods proxy attribute reads to their function).  Lower
        ``priority`` runs earlier; ties keep insertion order.

        ``batch=True`` opts the hook into batch dispatch: the ``*_batch``
        modes call it once per batch with the whole item sequence instead
        of once per item.  Opting in trades the per-frame interleaving
        guarantee for throughput — see :meth:`emit_batch`.
        """
        if owner is None:
            owner = getattr(fn, "_obs_scheme", None)
        hook = Hook(fn, priority, owner, next(self._seq), batch=batch)
        self._entries.append(hook)
        self._entries.sort(key=lambda h: (h.priority, h.seq))
        self._rebuild()

        def remove() -> None:
            if not hook.active:
                return
            hook.active = False
            try:
                self._entries.remove(hook)
            except ValueError:  # pragma: no cover - defensive
                pass
            self._rebuild()

        return remove

    def _rebuild(self) -> None:
        self.hooks = tuple(self._entries)
        self.has_batch_hooks = any(hook.batch for hook in self._entries)

    # -- list-compatible surface (attack tools, ad-hoc test taps) -------
    def append(self, fn: Callable) -> None:
        """``list.append`` shim: install at default priority, no owner."""
        self.add(fn)

    def remove(self, fn: Callable) -> None:
        """``list.remove`` shim: drop the first entry wrapping ``fn``."""
        for hook in self._entries:
            if hook.fn == fn:
                hook.active = False
                self._entries.remove(hook)
                self._rebuild()
                return
        raise ValueError(f"{self.name}: hook not installed: {fn!r}")

    def clear(self) -> None:
        for hook in self._entries:
            hook.active = False
        self._entries.clear()
        self._rebuild()

    def __contains__(self, fn: object) -> bool:
        return any(hook.fn == fn for hook in self._entries)

    def __iter__(self) -> Iterator[Callable]:
        return iter(hook.fn for hook in self.hooks)

    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        return bool(self.hooks)

    def owners(self) -> List[str]:
        """Installed-hook owners, dispatch order (diagnostics)."""
        return [hook.owner or self.fallback_label for hook in self.hooks]

    # ------------------------------------------------------------------
    # Fault accounting
    # ------------------------------------------------------------------
    def _isolate(self, hook: Hook, exc: Exception) -> None:
        """Count and attribute one swallowed hook exception."""
        _record_fault(
            self.name,
            self.node,
            hook.owner or UNLABELED,
            exc,
            self.policy,
            TRACER.current_frame,
        )

    def _count_drop(self, hook: Hook) -> None:
        hook_drops_counter().labels(
            point=self.name, scheme=hook.owner or self.fallback_label
        ).inc()

    # ------------------------------------------------------------------
    # Observed dispatch
    # ------------------------------------------------------------------
    def _observed(self, mode: str, hooks: Tuple[Hook, ...], args):
        """The one dispatch loop taken while an observer is on.

        :meth:`emit`, :meth:`verdict` and :meth:`allow` hand off here
        when ``TRACER.enabled``; results, fault isolation and drop
        counting match their plain loops.  Every hook decision passes
        through one ``scheme.inspect`` span whose ``verdict`` attribute
        is ``accept``/``drop`` (``verdict``), ``allow``/``drop``
        (``allow``) or ``error``.  ``emit`` records no verdict and opens
        no span for unowned hooks (attack sniffers, test probes are not
        scheme inspections); the judging modes label those with
        ``fallback_label``.
        """
        tracer = TRACER
        fid = tracer.current_frame
        for hook in hooks:
            if not hook.active:
                continue
            scheme = hook.owner or self.fallback_label
            if mode is _EMIT and hook.owner is None:
                span = _NO_SPAN
            else:
                span = tracer.span(
                    "scheme.inspect", scheme=scheme, node=self.node, frame=fid
                )
            with span:
                try:
                    value = hook.fn(*args)
                except Exception as exc:
                    self._isolate(hook, exc)
                    if mode is _EMIT:
                        continue
                    span.set(verdict="error")
                    if self.policy == FAIL_CLOSED:
                        self._count_drop(hook)
                        return False if mode is _VERDICT else (False, scheme)
                    continue
                if mode is _ALLOW:
                    span.set(verdict="allow" if value else "drop")
                    if not value:
                        self._count_drop(hook)
                        return (False, scheme)
                elif mode is _VERDICT and value is not None:
                    span.set(verdict="accept" if value else "drop")
                    if value is False:
                        self._count_drop(hook)
                    return value
        return (True, None) if mode is _ALLOW else None

    # ------------------------------------------------------------------
    # Dispatch modes
    # ------------------------------------------------------------------
    def emit(self, *args) -> None:
        """Notify every hook; exceptions are isolated regardless of policy."""
        hooks = self.hooks
        if not hooks:
            return
        if TRACER.enabled:
            self._observed(_EMIT, hooks, args)
            return
        for hook in hooks:
            if not hook.active:
                continue
            try:
                hook.fn(*args)
            except Exception as exc:
                self._isolate(hook, exc)

    def verdict(self, *args) -> Optional[bool]:
        """First non-``None`` return wins (ARP-guard convention).

        A raising hook abstains under :data:`FAIL_OPEN` and returns the
        drop verdict (``False``) under :data:`FAIL_CLOSED`.
        """
        hooks = self.hooks
        if not hooks:
            return None
        if TRACER.enabled:
            return self._observed(_VERDICT, hooks, args)
        for hook in hooks:
            if not hook.active:
                continue
            try:
                value = hook.fn(*args)
            except Exception as exc:
                self._isolate(hook, exc)
                if self.policy == FAIL_CLOSED:
                    self._count_drop(hook)
                    return False
                continue
            if value is not None:
                if value is False:
                    self._count_drop(hook)
                return value
        return None

    def allow(self, *args) -> Tuple[bool, Optional[str]]:
        """Every hook must allow (ingress-filter convention).

        Returns ``(allowed, vetoing scheme or None)``.  A raising hook
        allows under :data:`FAIL_OPEN` and vetoes under
        :data:`FAIL_CLOSED`.
        """
        hooks = self.hooks
        if not hooks:
            return (True, None)
        if TRACER.enabled:
            return self._observed(_ALLOW, hooks, args)
        for hook in hooks:
            if not hook.active:
                continue
            try:
                ok = hook.fn(*args)
            except Exception as exc:
                self._isolate(hook, exc)
                if self.policy == FAIL_CLOSED:
                    self._count_drop(hook)
                    return (False, hook.owner or self.fallback_label)
                continue
            if not ok:
                self._count_drop(hook)
                return (False, hook.owner or self.fallback_label)
        return (True, None)

    def transform(self, value, *args):
        """Value-rewriting chain (forward-tap convention).

        Each hook receives the current value (plus ``args``) and may
        return a replacement; ``None`` keeps the value.  A raising hook
        leaves the value unchanged under either policy (there is no
        meaningful "closed" result for a rewrite).
        """
        for hook in self.hooks:
            if not hook.active:
                continue
            try:
                replacement = hook.fn(value, *args)
            except Exception as exc:
                self._isolate(hook, exc)
                continue
            if replacement is not None:
                value = replacement
        return value

    # ------------------------------------------------------------------
    # Batch dispatch modes (the batched data plane)
    # ------------------------------------------------------------------
    def emit_batch(self, items, *args) -> None:
        """Notify hooks of a whole item batch in one dispatch.

        ``items`` is a sequence of argument tuples (one per frame); each
        hook also receives ``*args`` appended.  An idle pipeline costs
        exactly one truthiness check for the entire batch.  When no hook
        opted into batch dispatch, items are unrolled item-outer — each
        item visits every hook before the next item, byte-for-byte the
        per-frame :meth:`emit` order.  Batch-aware hooks
        (``add(..., batch=True)``) are called once with the whole batch
        at their priority position; mixing batch-aware and per-frame
        hooks switches the loop to hook-outer, which is part of what a
        hook opts into.
        """
        hooks = self.hooks
        if not hooks:
            return
        if not self.has_batch_hooks:
            emit = self.emit
            for item in items:
                emit(*item, *args)
            return
        for hook in hooks:
            if not hook.active:
                continue
            try:
                if hook.batch:
                    hook.fn(items, *args)
                else:
                    fn = hook.fn
                    for item in items:
                        fn(*item, *args)
            except Exception as exc:
                self._isolate(hook, exc)

    def transform_batch(self, values, *args):
        """Value-rewriting chain over a batch of values.

        Semantics match running :meth:`transform` on each value in order
        — per-frame hooks see one value at a time, in batch order, with
        identical fault isolation — so the fault injector's per-link
        impairments draw randomness in exactly the wire order whether or
        not frames arrive batched.  Batch-aware hooks receive (and may
        replace) the whole value list in one call.  Returns the (new)
        list of transformed values.
        """
        hooks = self.hooks
        if not hooks:
            return list(values)
        if not self.has_batch_hooks:
            transform = self.transform
            return [transform(value, *args) for value in values]
        out = list(values)
        for hook in hooks:
            if not hook.active:
                continue
            try:
                if hook.batch:
                    replacement = hook.fn(out, *args)
                    if replacement is not None:
                        out = list(replacement)
                else:
                    fn = hook.fn
                    for i, value in enumerate(out):
                        replacement = fn(value, *args)
                        if replacement is not None:
                            out[i] = replacement
            except Exception as exc:
                self._isolate(hook, exc)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"HookPoint({self.name!r}, node={self.node!r}, "
            f"policy={self.policy}, hooks={len(self._entries)})"
        )


class Pipeline:
    """The named hook points of one device, under a shared node label.

    ``pipeline.point("host.arp_guard")`` returns the same
    :class:`HookPoint` on every call, creating it on first use;
    :meth:`set_policy` flips every point between fail-open and
    fail-closed at once (an operator knob: fail-closed turns a crashed
    defense into a conservative drop-everything filter instead of
    silently standing down).
    """

    __slots__ = ("node", "policy", "_points")

    def __init__(self, node: Optional[str] = None, policy: str = FAIL_OPEN) -> None:
        if policy not in _POLICIES:
            raise ValueError(f"unknown hook policy {policy!r}; use {_POLICIES}")
        self.node = node
        self.policy = policy
        self._points: Dict[str, HookPoint] = {}

    def point(
        self,
        name: str,
        policy: Optional[str] = None,
        fallback_label: Optional[str] = None,
    ) -> HookPoint:
        existing = self._points.get(name)
        if existing is not None:
            return existing
        created = HookPoint(
            name,
            node=self.node,
            policy=policy or self.policy,
            fallback_label=fallback_label,
        )
        self._points[name] = created
        return created

    def set_policy(self, policy: str) -> None:
        if policy not in _POLICIES:
            raise ValueError(f"unknown hook policy {policy!r}; use {_POLICIES}")
        self.policy = policy
        for point in self._points.values():
            point.policy = policy

    def points(self) -> List[HookPoint]:
        return [self._points[name] for name in sorted(self._points)]

    def __iter__(self) -> Iterator[HookPoint]:
        return iter(self.points())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Pipeline(node={self.node!r}, points={sorted(self._points)})"


class TeardownStack:
    """LIFO teardown registry with per-callback fault isolation.

    :meth:`close` runs every registered callback in reverse order even
    when some raise; each failure is counted in ``hook_errors_total``
    under the ``scheme.teardown`` point and attributed to the owning
    scheme.  ``close`` drains the stack, so calling it twice (idempotent
    ``uninstall``) runs nothing the second time.
    """

    __slots__ = ("owner", "_callbacks")

    def __init__(self, owner: Optional[str] = None) -> None:
        self.owner = owner
        self._callbacks: List[Tuple[Callable[[], None], Optional[str]]] = []

    def push(self, callback: Callable[[], None], owner: Optional[str] = None) -> None:
        self._callbacks.append((callback, owner or self.owner))

    def __len__(self) -> int:
        return len(self._callbacks)

    def close(self) -> int:
        """Run all teardowns (reverse order); returns the failure count."""
        callbacks = self._callbacks[::-1]
        self._callbacks.clear()
        failures = 0
        for callback, owner in callbacks:
            try:
                callback()
            except Exception as exc:
                failures += 1
                _record_fault(
                    "scheme.teardown", None, owner or UNLABELED, exc, FAIL_OPEN, None
                )
        return failures

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TeardownStack(owner={self.owner!r}, pending={len(self._callbacks)})"
