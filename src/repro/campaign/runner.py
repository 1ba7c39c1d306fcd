"""Campaign execution: serial or multiprocessing-backed, with retries.

The runner turns a :class:`CampaignSpec` into a :class:`CampaignResult`:

* cells already present in the :class:`~repro.campaign.cache.ResultCache`
  are served without computing anything;
* remaining tasks run either in-process (``jobs=1``, single task, or no
  ``fork`` support) or on a bounded pool of worker *processes* — one
  process per task attempt, so a crashed or hung worker can be reaped
  with ``terminate()`` without poisoning a shared pool;
* a task that raises (or times out, in parallel mode) is retried up to
  ``retries`` extra attempts, then recorded as a :class:`TaskFailure`
  without aborting the rest of the campaign.

Determinism: results are keyed by task identity and aggregation walks
tasks in spec order, so worker count and completion order never change
the campaign's aggregates.
"""

from __future__ import annotations

import itertools
import multiprocessing
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import wait as connection_wait
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.campaign.cache import ResultCache
from repro.campaign.spec import CampaignSpec, CampaignTask, canonical_params, execute_task
from repro.errors import CampaignError
from repro.obs import live
from repro.obs.registry import REGISTRY
from repro.obs.watchdog import (
    DEFAULT_BEAT_INTERVAL,
    DEFAULT_STALL_AFTER,
    HEARTBEAT_SUFFIX,
    Heartbeat,
    Watchdog,
    WorkerHealth,
)

__all__ = ["TaskFailure", "CampaignResult", "run_campaign"]

#: Event cadence of the beacon-only recorder installed in heartbeating
#: workers that have no recorder of their own — frequent enough that the
#: beacon tracks sim progress between heartbeats, cheap enough to ignore.
_BEACON_CADENCE_EVENTS = 2_000

#: Signature of the unit of work: task in, JSON-safe result dict out.
Executor = Callable[[CampaignTask], Dict[str, object]]


@dataclass(frozen=True)
class TaskFailure:
    """One task that exhausted its attempts without producing a result."""

    task: CampaignTask
    error: str
    attempts: int


@dataclass
class CampaignResult:
    """Everything a finished campaign produced."""

    spec: CampaignSpec
    results: Dict[str, Dict[str, object]] = field(default_factory=dict)
    failures: Tuple[TaskFailure, ...] = ()
    cache_hits: int = 0
    executed: int = 0
    jobs: int = 1
    elapsed: float = 0.0
    #: Worker metric snapshots folded into the parent registry (parallel
    #: runs only — in-process execution already counts into the parent).
    worker_metrics_merged: int = 0
    #: Stall episodes the run-health watchdog counted (heartbeat runs).
    worker_stalls: int = 0
    #: Where heartbeat files were written, or ``None`` (watchdog off).
    heartbeat_dir: Optional[str] = None
    #: Final watchdog scan — per-worker liveness at campaign end.
    worker_health: Tuple[WorkerHealth, ...] = ()

    @property
    def total_tasks(self) -> int:
        return len(self.results) + len(self.failures)

    @property
    def cache_hit_rate(self) -> float:
        return self.cache_hits / self.total_tasks if self.total_tasks else 0.0

    def result_for(self, task: CampaignTask) -> Optional[Dict[str, object]]:
        return self.results.get(task.key())

    def completed_in_order(
        self,
    ) -> List[Tuple[CampaignTask, Dict[str, object]]]:
        """(task, result) pairs in spec order — the deterministic view."""
        out = []
        for task in self.spec.tasks():
            result = self.results.get(task.key())
            if result is not None:
                out.append((task, result))
        return out


def _task_label(task: CampaignTask) -> str:
    return f"{task.scheme_label} {canonical_params(task.variant)} trial={task.trial}"


def _start_worker_heartbeat(
    task: CampaignTask, heartbeat_path, heartbeat_interval: float
) -> Optional[Heartbeat]:
    """Heartbeat + beacon telemetry for one worker (or the serial loop).

    The beacon only advances while a telemetry recorder ticks it, so a
    worker without one gets a ring-only recorder installed — that is
    what lets the parent watchdog tell "making sim progress" apart from
    "heartbeat thread alive, main thread wedged".
    """
    if live.default_recorder() is None:
        live.install(
            live.TelemetryRecorder(
                cadence_events=_BEACON_CADENCE_EVENTS,
                capacity=8,
                include_metrics=False,
            )
        )
    label = _task_label(task)
    heartbeat = Heartbeat(
        heartbeat_path,
        interval=heartbeat_interval,
        payload=lambda: {"task": label},
    )
    try:
        return heartbeat.start()
    except OSError:  # pragma: no cover - heartbeat dir vanished
        return None


def _worker_entry(
    executor: Executor,
    task: CampaignTask,
    conn,
    heartbeat_path=None,
    heartbeat_interval: float = DEFAULT_BEAT_INTERVAL,
) -> None:
    """Body of one worker process: run the task, send one message back.

    A dict payload carries an ``_obs`` section: the *delta* of the
    process-global metrics registry (labeled metrics plus the perf
    counter block) over the task.  Fork-workers inherit the parent's
    counts, so only the delta is safe to merge back without double
    counting.
    """
    heartbeat = None
    if heartbeat_path is not None:
        heartbeat = _start_worker_heartbeat(task, heartbeat_path, heartbeat_interval)
    try:
        before = REGISTRY.snapshot()
        payload = executor(task)
        if isinstance(payload, dict):
            payload["_obs"] = REGISTRY.delta(before)
        conn.send(("ok", payload))
    except BaseException as exc:  # noqa: BLE001 - report, parent decides
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except Exception:  # pragma: no cover - broken pipe during shutdown
            pass
    finally:
        if heartbeat is not None:
            try:
                heartbeat.stop()
            except Exception:  # pragma: no cover - never mask the result
                pass
        try:
            conn.close()
        except Exception:  # pragma: no cover
            pass


def _fork_context():
    """The fork multiprocessing context, or ``None`` if unsupported.

    Workers must inherit the parent's memory image (``fork``) so that
    custom executors — closures in tests, registry entries created at
    runtime — exist in the child without pickling.  Platforms without
    fork degrade gracefully to serial execution.
    """
    try:
        if "fork" in multiprocessing.get_all_start_methods():
            return multiprocessing.get_context("fork")
    except Exception:  # pragma: no cover - exotic platforms
        pass
    return None


def _run_serial(
    tasks: List[CampaignTask],
    executor: Executor,
    retries: int,
    record_ok: Callable[[CampaignTask, Dict[str, object]], None],
    record_fail: Callable[[CampaignTask, str, int], None],
) -> None:
    for task in tasks:
        error = ""
        for attempt in range(1, retries + 2):
            try:
                record_ok(task, executor(task))
                break
            except Exception as exc:  # noqa: BLE001
                error = f"{type(exc).__name__}: {exc}"
        else:
            record_fail(task, error, retries + 1)


def _run_parallel(
    tasks: List[CampaignTask],
    executor: Executor,
    jobs: int,
    retries: int,
    task_timeout: float,
    ctx,
    record_ok: Callable[[CampaignTask, Dict[str, object]], None],
    record_fail: Callable[[CampaignTask, str, int], None],
    heartbeat_dir: Optional[Path] = None,
    heartbeat_interval: float = DEFAULT_BEAT_INTERVAL,
    watchdog: Optional[Watchdog] = None,
) -> None:
    pending = deque((task, 1) for task in tasks)
    running: Dict[object, Tuple[object, CampaignTask, float, int, Optional[Path]]] = {}
    launches = itertools.count(1)

    def finish(task: CampaignTask, attempt: int, error: str) -> None:
        if attempt <= retries:
            pending.append((task, attempt + 1))
        else:
            record_fail(task, error, attempt)

    while pending or running:
        while pending and len(running) < jobs:
            task, attempt = pending.popleft()
            hb_path = None
            if heartbeat_dir is not None:
                hb_path = heartbeat_dir / f"worker-{next(launches)}{HEARTBEAT_SUFFIX}"
            parent_conn, child_conn = ctx.Pipe(duplex=False)
            proc = ctx.Process(
                target=_worker_entry,
                args=(executor, task, child_conn, hb_path, heartbeat_interval),
                daemon=True,
                name=f"campaign-worker-{task.trial}",
            )
            proc.start()
            child_conn.close()
            deadline = time.monotonic() + task_timeout
            running[parent_conn] = (proc, task, deadline, attempt, hb_path)

        if not running:
            continue
        now = time.monotonic()
        next_deadline = min(deadline for _, _, deadline, _, _ in running.values())
        wait_for = max(0.0, min(0.25, next_deadline - now))
        ready = connection_wait(list(running), timeout=wait_for)

        for conn in ready:
            proc, task, _, attempt, _hb = running.pop(conn)
            try:
                status, payload = conn.recv()
            except (EOFError, OSError):
                status, payload = (
                    "error",
                    f"worker died before reporting (exitcode={proc.exitcode})",
                )
            conn.close()
            proc.join()
            if status == "ok":
                record_ok(task, payload)
            else:
                finish(task, attempt, payload)

        now = time.monotonic()
        for conn in [c for c, v in running.items() if v[2] <= now]:
            proc, task, _, attempt, hb_path = running.pop(conn)
            proc.terminate()
            proc.join(1.0)
            if proc.is_alive():  # pragma: no cover - terminate() sufficed
                proc.kill()
                proc.join()
            conn.close()
            if hb_path is not None:
                # The worker died without saying goodbye; remove its file
                # so the watchdog does not keep grading a corpse "stale".
                try:
                    hb_path.unlink()
                except OSError:
                    pass
            finish(task, attempt, f"timed out after {task_timeout:.1f}s")

        if watchdog is not None:
            # Every <=0.25s wakeup: grade the heartbeat files so stall
            # episodes are counted while they happen, not post-mortem.
            watchdog.scan()


def run_campaign(
    spec: CampaignSpec,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    retries: int = 1,
    task_timeout: float = 300.0,
    executor: Executor = execute_task,
    heartbeat_dir: Union[str, Path, None] = None,
    heartbeat_interval: float = DEFAULT_BEAT_INTERVAL,
    stall_after: float = DEFAULT_STALL_AFTER,
) -> CampaignResult:
    """Execute every task of ``spec`` and collect the results.

    Parameters
    ----------
    jobs:
        Worker process count.  ``1`` (or platforms without ``fork``)
        runs everything in-process.
    cache:
        Optional :class:`ResultCache`; hits skip execution entirely and
        fresh results are written back.  ``None`` disables caching.
    retries:
        Extra attempts after a task's first failure before it is
        recorded as a :class:`TaskFailure`.
    task_timeout:
        Per-attempt wall-clock budget, enforced only in parallel mode
        (an in-process task cannot be safely interrupted).
    executor:
        The unit of work; overridable for tests and custom experiments.
    heartbeat_dir:
        When given, enables the run-health watchdog: every worker (or
        the serial loop) writes heartbeat files there, the parent grades
        them each scheduler wakeup, and the result carries
        ``worker_stalls`` / ``worker_health``.  ``None`` (the default)
        keeps the whole machinery off.
    heartbeat_interval:
        Seconds between heartbeat writes.
    stall_after:
        Seconds of frozen heartbeat (or frozen sim-clock beacon) before
        a worker is graded stalled.
    """
    if jobs < 1:
        raise CampaignError(f"jobs must be >= 1, got {jobs}")
    if retries < 0:
        raise CampaignError(f"retries must be >= 0, got {retries}")
    if task_timeout <= 0:
        raise CampaignError(f"task_timeout must be positive, got {task_timeout}")

    started = time.monotonic()
    tasks = spec.tasks()
    result = CampaignResult(spec=spec, jobs=jobs)
    failures: List[TaskFailure] = []
    to_run: List[CampaignTask] = []

    for task in tasks:
        if cache is not None:
            cached = cache.get(cache.task_key(task))
            if cached is not None:
                if isinstance(cached, dict):
                    cached.pop("_obs", None)  # pre-strip era cache entries
                result.results[task.key()] = cached
                result.cache_hits += 1
                continue
        to_run.append(task)

    ctx = _fork_context()
    parallel = bool(to_run) and jobs > 1 and len(to_run) > 1 and ctx is not None

    hb_dir: Optional[Path] = None
    watchdog: Optional[Watchdog] = None
    if heartbeat_dir is not None:
        hb_dir = Path(heartbeat_dir)
        hb_dir.mkdir(parents=True, exist_ok=True)
        watchdog = Watchdog(hb_dir, stall_after=stall_after)
        result.heartbeat_dir = str(hb_dir)

    def record_ok(task: CampaignTask, payload: Dict[str, object]) -> None:
        # The _obs section is transport, not result: strip it before the
        # payload is stored or cached.  Only a worker process adds it (an
        # in-process task already counted into this process's globals).
        obs = payload.pop("_obs", None) if isinstance(payload, dict) else None
        if obs is not None:
            REGISTRY.merge(obs)
            result.worker_metrics_merged += 1
        result.results[task.key()] = payload
        result.executed += 1
        if cache is not None:
            cache.put(cache.task_key(task), task, payload)

    def record_fail(task: CampaignTask, error: str, attempts: int) -> None:
        failures.append(TaskFailure(task=task, error=error, attempts=attempts))

    if to_run:
        if not parallel:
            _run_serial_with_heartbeat(
                to_run,
                executor,
                retries,
                record_ok,
                record_fail,
                hb_dir,
                heartbeat_interval,
            )
        else:
            _run_parallel(
                to_run,
                executor,
                jobs,
                retries,
                task_timeout,
                ctx,
                record_ok,
                record_fail,
                heartbeat_dir=hb_dir,
                heartbeat_interval=heartbeat_interval,
                watchdog=watchdog,
            )

    if watchdog is not None:
        result.worker_health = tuple(watchdog.scan())
        result.worker_stalls = watchdog.stall_episodes
    result.failures = tuple(failures)
    result.elapsed = time.monotonic() - started
    return result


def _run_serial_with_heartbeat(
    tasks: List[CampaignTask],
    executor: Executor,
    retries: int,
    record_ok: Callable[[CampaignTask, Dict[str, object]], None],
    record_fail: Callable[[CampaignTask, str, int], None],
    hb_dir: Optional[Path],
    heartbeat_interval: float,
) -> None:
    """Serial execution, optionally under one long-lived heartbeat.

    The in-process loop gets a single ``campaign-serial`` heartbeat whose
    payload tracks the task currently running, plus a beacon recorder if
    none is installed — so ``repro top`` works on serial runs too.
    """
    if hb_dir is None:
        _run_serial(tasks, executor, retries, record_ok, record_fail)
        return
    current: Dict[str, Optional[str]] = {"task": None}

    def labeled(task: CampaignTask) -> Dict[str, object]:
        current["task"] = _task_label(task)
        return executor(task)

    beacon_recorder = None
    if live.default_recorder() is None:
        beacon_recorder = live.TelemetryRecorder(
            cadence_events=_BEACON_CADENCE_EVENTS, capacity=8, include_metrics=False
        )
        live.install(beacon_recorder)
    heartbeat = Heartbeat(
        hb_dir / f"campaign-serial{HEARTBEAT_SUFFIX}",
        interval=heartbeat_interval,
        payload=lambda: {"task": current["task"]},
    )
    heartbeat.start()
    try:
        _run_serial(tasks, labeled, retries, record_ok, record_fail)
    finally:
        heartbeat.stop()
        if beacon_recorder is not None and live.default_recorder() is beacon_recorder:
            live.uninstall()
