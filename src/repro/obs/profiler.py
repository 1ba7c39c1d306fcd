"""Sampling wall-clock profiler with subsystem attribution.

A daemon thread wakes every ``interval`` seconds and captures the target
thread's current stack via ``sys._current_frames()`` — the standard
external-sampler technique (py-spy and friends do the same from outside
the process).  Nothing is installed on any hot path: when the profiler
is not running the simulator, switch, and scheme code carry zero extra
instructions, which is what lets ``repro bench --check`` double as the
zero-cost guard.

Each sample is classified to a *subsystem* by walking the stack from the
innermost frame outward and taking the first frame that lands in a repro
package:

=====================  =================================================
``sim-loop``           ``repro/sim/`` — the event heap and dispatch
``switch-plane``       ``repro/l2/`` — switch, hub, CAM, ports and links
``scheme-hooks``       ``repro/schemes/`` + ``repro/hooks/``
``fault-transforms``   ``repro/faults/``
``sdn-control-plane``  ``repro/sdn/``
``host-stack``         ``repro/stack/``
``codecs``             ``repro/packets/`` + ``repro/net/``
``campaign``           ``repro/campaign/``
``observability``      ``repro/obs/`` + ``repro/perf/``
``workloads``          ``repro/attacks/`` + ``repro/workloads/``
``experiment``         ``repro/core/`` + ``repro/analysis/`` + ``repro/crypto/``
``other-repro``        anything else under ``repro/`` (cli, errors...)
``external``           stacks that never touch repro code
=====================  =================================================

Aggregation is a :class:`collections.Counter` of collapsed stacks, which
exports directly to the Brendan-Gregg folded format (``frame;frame N``)
that ``flamegraph.pl`` and speedscope consume — via ``repro run --profile-out``.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ObsError

__all__ = [
    "DEFAULT_INTERVAL",
    "SamplingProfiler",
    "classify_frame",
    "classify_stack",
]

DEFAULT_INTERVAL = 0.002
_MAX_DEPTH = 64

def classify_frame(filename: str) -> Optional[str]:
    """Subsystem for the code in ``filename``, or ``None`` for non-repro
    code.  The package path alone decides it."""
    path = filename.replace("\\", "/")
    idx = path.rfind("/repro/")
    if idx < 0:
        return None
    top = path[idx + 7:].split("/", 1)[0]
    if top.endswith(".py"):  # repro/cli.py, repro/errors.py, ...
        top = top[:-3]
    if top == "sim":
        return "sim-loop"
    if top == "l2":
        return "switch-plane"
    if top in ("schemes", "hooks"):
        return "scheme-hooks"
    if top == "faults":
        return "fault-transforms"
    if top == "sdn":
        return "sdn-control-plane"
    if top == "stack":
        return "host-stack"
    if top in ("packets", "net"):
        return "codecs"
    if top == "campaign":
        return "campaign"
    if top in ("obs", "perf"):
        return "observability"
    if top in ("attacks", "workloads"):
        return "workloads"
    if top in ("core", "analysis", "crypto"):
        return "experiment"
    return "other-repro"


def classify_stack(frames: Sequence[Tuple[str, str]]) -> str:
    """Subsystem for a whole stack (innermost frame first).

    The innermost repro frame wins, so a codec call made from the switch
    counts as codec time — fine-grained attribution, every bucket named.
    """
    for filename, _funcname in frames:
        label = classify_frame(filename)
        if label is not None:
            return label
    return "external"


def _frame_label(filename: str, funcname: str) -> str:
    path = filename.replace("\\", "/")
    idx = path.rfind("/repro/")
    if idx >= 0:
        mod = path[idx + 1:]
    else:
        mod = path.rsplit("/", 1)[-1]
    if mod.endswith(".py"):
        mod = mod[:-3]
    return f"{mod.replace('/', '.')}:{funcname}"


class SamplingProfiler:
    """Wall-clock stack sampler for one target thread.

    Off by default; :meth:`start` spawns the sampler thread (targeting
    the calling thread unless told otherwise) and :meth:`stop` joins it.
    Usable as a context manager.
    """

    def __init__(self, interval: float = DEFAULT_INTERVAL, max_depth: int = _MAX_DEPTH) -> None:
        if interval <= 0:
            raise ObsError(f"interval must be positive, got {interval}")
        if max_depth < 1:
            raise ObsError(f"max_depth must be >= 1, got {max_depth}")
        self.interval = interval
        self.max_depth = max_depth
        #: Collapsed stacks (root-first label tuples) -> sample count.
        self.stacks: Counter = Counter()
        #: Subsystem -> sample count.
        self.subsystems: Counter = Counter()
        self.sample_count = 0
        #: Wall-clock seconds from the last :meth:`start` to its :meth:`stop`.
        self.elapsed = 0.0
        self._started = 0.0
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._target_id: Optional[int] = None

    @property
    def running(self) -> bool:
        return self._thread is not None

    def start(self, target_thread: Optional[threading.Thread] = None) -> "SamplingProfiler":
        if self._thread is not None:
            raise ObsError("profiler already running")
        target = target_thread if target_thread is not None else threading.current_thread()
        if target.ident is None:
            raise ObsError("target thread has not been started")
        self._target_id = target.ident
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="repro-profiler", daemon=True
        )
        self._started = time.perf_counter()
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=2.0)
        self._thread = None
        self.elapsed = time.perf_counter() - self._started

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self._take_sample()

    def _take_sample(self) -> None:
        frame = sys._current_frames().get(self._target_id)
        raw: List[Tuple[str, str]] = []
        depth = 0
        while frame is not None and depth < self.max_depth:
            code = frame.f_code
            raw.append((code.co_filename, code.co_name))
            frame = frame.f_back
            depth += 1
        if raw:
            self.record(raw)

    def record(self, frames: Sequence[Tuple[str, str]]) -> None:
        """Account one stack (innermost frame first).

        Public so tests can feed synthetic stacks without timing games.
        """
        self.sample_count += 1
        self.subsystems[classify_stack(frames)] += 1
        self.stacks[
            tuple(_frame_label(f, fn) for f, fn in reversed(frames))
        ] += 1

    def reset(self) -> None:
        self.stacks.clear()
        self.subsystems.clear()
        self.sample_count = 0

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def attribution(self) -> Dict[str, float]:
        """Subsystem -> fraction of samples, descending."""
        total = self.sample_count
        if not total:
            return {}
        return {
            name: count / total
            for name, count in self.subsystems.most_common()
        }

    def attributed_fraction(self) -> float:
        """Fraction of samples landing in a *named* repro subsystem."""
        total = self.sample_count
        if not total:
            return 0.0
        return 1.0 - self.subsystems.get("external", 0) / total

    def collapsed(self) -> str:
        """Brendan-Gregg folded stacks: ``frame;frame;frame count``."""
        lines = [
            ";".join(stack) + f" {count}"
            for stack, count in sorted(self.stacks.items())
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    def summary(self) -> str:
        parts = ", ".join(
            f"{name} {share:.1%}" for name, share in self.attribution().items()
        )
        return f"{self.sample_count} samples: {parts}" if parts else "0 samples"
