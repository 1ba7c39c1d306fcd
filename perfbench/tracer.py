"""Layer tracer built from wrappers patched in from the benchmark side.

The program under test is not modified.  :class:`LayerTracer` replaces
methods on the program's classes (and module-level functions in every
``repro`` module that binds them) with thin wrappers that keep a layer
stack.  Each wrapped call records its duration; its *self* time is that
duration minus the time of the wrapped calls nested inside it.  Totals
are aggregated online per layer, counters per metric, and only a bounded,
systematically thinned sample of individual spans is kept.

Patching happens on classes, before the program builds any object, so
methods bound later (scheme hooks registered at install time, ``fire =
self._fire`` in the event loop) are bound wrappers too.  :meth:`restore`
puts every original back.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

#: Spans kept in memory at most (the sample is thinned by half, and the
#: sampling stride doubled, whenever it fills up).
SPAN_CAP = 4096

#: Dunder methods worth wrapping; the rest (``__eq__``, ``__hash__``,
#: ``__len__``...) are too fine-grained to be layer boundaries.
_DUNDERS = ("__init__", "__call__")


class LayerTracer:
    """Per-layer self time, call counts and a bounded span sample."""

    def __init__(self, span_cap: int = SPAN_CAP) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        #: Inclusive time of outermost calls, keyed by wrapper name.
        self.incl_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        #: Objects the program built while tracing, by kind, so counters
        #: the program keeps on them can be compared with traced counts.
        self.instances: Dict[str, list] = defaultdict(list)
        #: Stack frames: ``[child_seconds, wrapper_name, layer]``; the
        #: root frame collects time spent in wrapped calls made from
        #: untraced code.
        self._stack: List[list] = [[0.0, None, None]]
        self._patches: List[tuple] = []
        self.active = False
        self.span_cap = span_cap
        self.spans: List[tuple] = []
        self._span_stride = 1
        self._span_tick = 0
        self._t0 = time.perf_counter()

    # ------------------------------------------------------------------
    # Wrapper factories
    # ------------------------------------------------------------------
    def _close(self, frame, layer, name, t0) -> None:
        dt = time.perf_counter() - t0
        stack = self._stack
        stack.pop()
        self.self_s[layer] += dt - frame[0]
        parent = stack[-1]
        parent[0] += dt
        if parent[1] != name:
            self.incl_s[name] += dt
        self._span_tick += 1
        if self._span_tick >= self._span_stride:
            self._span_tick = 0
            self.spans.append((layer, name, parent[1], t0 - self._t0, dt))
            if len(self.spans) >= self.span_cap:
                del self.spans[1::2]
                self._span_stride *= 2

    def wrap_function(
        self,
        fn: Callable,
        layer,
        name: str,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> Callable:
        """A timing wrapper around ``fn``.

        ``layer`` is a layer name or ``layer(tracer, args) -> name``;
        ``before(tracer, args)`` runs ahead of the call (the caller's frame
        is still on top of the stack) and ``after(tracer, args, result)``
        once it returns.
        """
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, layer, name, before)
        tracer = self
        stack = self._stack
        perf = time.perf_counter
        close = self._close

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if before is not None:
                before(tracer, args)
            where = layer(tracer, args) if callable(layer) else layer
            frame = [0.0, name, where]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(frame, where, name, t0)
            if after is not None:
                after(tracer, args, result)
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        wrapper.__wrapped__ = fn
        wrapper.layer_wrapper = True
        return wrapper

    def _wrap_generator(self, fn, layer, name, before) -> Callable:
        """Generators run in steps: time each ``next`` as one call, and
        run ``before`` once per item yielded."""
        tracer = self

        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            if not tracer.active:
                return gen
            where = layer(tracer, args) if callable(layer) else layer
            return tracer._drive(gen, where, name, before, args)

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__wrapped__ = fn
        wrapper.layer_wrapper = True
        return wrapper

    def _drive(self, gen, layer, name, before, args):
        stack = self._stack
        perf = time.perf_counter
        try:
            while True:
                frame = [0.0, name, layer]
                stack.append(frame)
                t0 = perf()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._close(frame, layer, name, t0)
                if before is not None:
                    before(self, args)
                yield item
        finally:
            gen.close()

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def patch_class(
        self,
        cls: type,
        layer,
        only: Optional[tuple] = None,
        hooks: Optional[Dict[str, tuple]] = None,
    ) -> None:
        """Wrap the methods ``cls`` defines itself (not inherited ones).

        ``only`` restricts the wrapped names; ``hooks`` maps a method name
        to its ``(before, after)`` counting callbacks.
        """
        hooks = hooks or {}
        for attr, raw in list(vars(cls).items()):
            if only is not None and attr not in only:
                continue
            if (
                attr.startswith("__")
                and attr not in _DUNDERS
                and not inspect.isgeneratorfunction(raw)  # __iter__ streams
            ):
                continue
            before, after = hooks.get(attr, (None, None))
            name = f"{cls.__name__}.{attr}"
            if isinstance(raw, (classmethod, staticmethod)):
                inner = raw.__func__
                if not inspect.isfunction(inner):
                    continue
                wrapped = type(raw)(
                    self.wrap_function(inner, layer, name, before, after)
                )
            elif inspect.isfunction(raw):
                wrapped = self.wrap_function(raw, layer, name, before, after)
            else:
                continue
            self._patches.append((cls, attr, raw))
            setattr(cls, attr, wrapped)

    def patch_module_function(
        self, module, attr: str, layer, before=None, after=None
    ) -> None:
        """Wrap a module-level function wherever a ``repro`` module binds it.

        ``from x import f`` copies the reference into the importer, so
        patching only the defining module would leave those call sites
        untraced.
        """
        original = getattr(module, attr)
        wrapped = self.wrap_function(
            original, layer, f"{module.__name__.rsplit('.', 1)[-1]}.{attr}",
            before, after,
        )
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "") or ""
            if not (name == "repro" or name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapped)

    def restore(self) -> None:
        """Put every original back, newest patch first."""
        self.active = False
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @property
    def patched(self) -> int:
        return len(self._patches)

    # ------------------------------------------------------------------
    # Reading the stack from counting callbacks
    # ------------------------------------------------------------------
    def caller(self) -> Optional[str]:
        """Wrapper name of the innermost traced call (the caller)."""
        return self._stack[-1][1]

    def caller_layer(self) -> Optional[str]:
        return self._stack[-1][2]

    def total_self(self) -> float:
        return sum(self.self_s.values())

    def layer_self(self, prefix: str) -> float:
        return sum(v for k, v in self.self_s.items() if k == prefix or k.startswith(prefix + "."))
