"""Parallel experiment runner: task batches over the one engine.

Runs a batch of independent :class:`Task`\\ s — sweep points, whole
figures, the cells of a campaign run table — on the
execution engine (:mod:`repro.harness.engine`), consulting a
:class:`~repro.harness.cache.ResultCache` and a
:class:`~repro.harness.checkpoint.CampaignManifest` first and recording
every step as a :func:`repro.obs.emit` event (``task/*``, ``cache/*``,
``run/*``).

Determinism is the design center: a task carries *all* of its inputs
(including any RNG seeding, typically an
:class:`~repro.rng.RngFactory` pre-perturbed with the replica's
``run_index``), workers add nothing, and outcomes are returned in task
order — so ``jobs=1`` and ``jobs=8`` produce bit-identical results and
the cache can address results by input content alone.

Resilience comes from the engine: a hung task's worker is killed at
its wall-clock budget and respawned, a worker that dies retries or
fails only *its* task, and ``interruptible=True`` turns SIGINT/SIGTERM
into a clean drain — in-flight tasks finish, their outcomes are
journaled to the manifest, and :class:`~repro.errors.CampaignInterrupted`
tells the caller the campaign can be resumed.

Unless the caller passes its own executor, execution falls back to
in-process serial mode when ``jobs <= 1`` or when a task is not
picklable (e.g. a closure), with a ``run/serial-fallback`` event so
silent degradation never masquerades as parallel speedup.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

from repro import obs
from repro.errors import CampaignInterrupted, HarnessError
from repro.harness.cache import ResultCache
from repro.harness.engine import Done, LocalPoolExecutor, SerialExecutor, schedule
from repro.harness.faults import FaultPolicy, TaskFailure

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.harness.checkpoint import CampaignManifest


@dataclass(frozen=True)
class Task:
    """One unit of harness work: a picklable callable plus arguments.

    ``key`` must be unique within a batch; it names the task in
    events and indexes its outcome.  ``cache_key`` (from
    :func:`~repro.harness.cache.content_key`) opts the task into result
    caching; ``None`` means always recompute.  ``plane_keys`` lists the
    trace-plane spec keys this task replays (see
    :mod:`repro.harness.traceplane`): the runner retains them while the
    task is pending and releases them at its final outcome, so a
    shared trace file is removed the moment its last consumer
    completes.
    """

    key: str
    fn: Callable[..., Any]
    args: tuple = ()
    kwargs: Mapping[str, Any] = field(default_factory=dict)
    cache_key: str | None = None
    plane_keys: tuple = ()


@dataclass(frozen=True)
class TaskOutcome:
    """What happened to one task: a value, or a recorded failure."""

    key: str
    value: Any = None
    failure: TaskFailure | None = None
    wall_s: float = 0.0
    attempts: int = 0
    cached: bool = False
    worker: int | None = None  # pid that ran the task

    @property
    def ok(self) -> bool:
        return self.failure is None


def _is_picklable(task: Task) -> bool:
    try:
        pickle.dumps((task.fn, task.args, dict(task.kwargs)))
        return True
    except Exception:
        return False


def run_tasks(
    tasks: Sequence[Task],
    *,
    jobs: int = 1,
    cache: ResultCache | None = None,
    faults: FaultPolicy | None = None,
    manifest: "CampaignManifest | None" = None,
    fail_fast: bool = False,
    interruptible: bool = False,
    plane: "Any | None" = None,
    executor: Any = None,
    poison_k: int | None = None,
) -> list[TaskOutcome]:
    """Execute a batch of tasks; outcomes are returned in task order.

    A task that fails (after the fault policy's retries) yields an
    outcome with ``ok == False`` — the call itself raises only for
    harness misuse (duplicate keys) or a drained interrupt
    (:class:`CampaignInterrupted`, only with ``interruptible=True``).
    Successful, previously-uncached results are written back to
    ``cache`` as they complete.

    ``jobs > 1`` runs the batch on a :class:`LocalPoolExecutor` of
    ``jobs`` workers (it forks no more than there are pending tasks,
    whoever built it).  Every worker death costs its task
    one attempt, so the pool may respawn ``pending x max_attempts``
    times: the respawn budget can never run out before the tasks'
    retry budgets do.  ``executor`` (a :class:`SerialExecutor` or a
    :class:`LocalPoolExecutor`, as campaigns pass one) is used as
    given in place of the one ``jobs`` would pick; like that one, it
    is started only when a task is pending.  ``poison_k`` quarantines
    a task that killed that many consecutive workers (failure kind
    ``poisoned``); None, the default, leaves worker deaths plain
    retryable failures.  Whatever the executor, a task left unrun
    when no worker survives fails ``missing``.

    ``manifest`` journals every final outcome incrementally and serves
    tasks the campaign already completed (a ``resume/skip`` event)
    without recomputing them.  ``fail_fast`` stops dispatching after
    the first ultimate failure; not-yet-started tasks fail with
    ``KIND_ABORTED``.

    ``plane`` is a :class:`repro.harness.traceplane.TracePlane`: each
    pending task's ``plane_keys`` are retained up front and released
    when the task reaches its final outcome (success, failure or
    abort), removing shared trace files as their consumers drain.
    Tasks served from cache or manifest never retain — their traces
    are not replayed.  A drained interrupt leaves retained keys to
    :meth:`TracePlane.close`, which the campaign owner runs either
    way.
    """
    faults = faults if faults is not None else FaultPolicy()
    keys = [task.key for task in tasks]
    if len(set(keys)) != len(keys):
        raise HarnessError("duplicate task keys in batch")

    outcomes: dict[str, TaskOutcome] = {}
    pending: list[Task] = []
    quarantined_before = cache.quarantined if cache is not None else 0
    for task in tasks:
        if manifest is not None:
            hit, value = manifest.lookup(task.key)
            if hit:
                obs.emit("resume/skip", task=task.key)
                outcomes[task.key] = TaskOutcome(
                    key=task.key, value=value, cached=True
                )
                continue
        if cache is not None and task.cache_key is not None:
            hit, value = cache.get(task.cache_key)
            if hit:
                obs.emit("cache/hit", task=task.key)
                outcome = TaskOutcome(key=task.key, value=value, cached=True)
                outcomes[task.key] = outcome
                if manifest is not None:
                    manifest.record(task.key, outcome)
                continue
            obs.emit("cache/miss", task=task.key)
        pending.append(task)
    if cache is not None and cache.quarantined > quarantined_before:
        obs.emit(
            "cache/quarantined", entries=cache.quarantined - quarantined_before
        )

    if plane is not None:
        for task in pending:
            if task.plane_keys:
                plane.retain(task.plane_keys)
        if plane.refs:
            obs.emit(
                "run/trace-plane",
                segments=len(plane.refs),
                bytes=plane.bytes_shared,
            )

    def finished(task: Task, result: Done | TaskFailure) -> None:
        """Persist one final outcome the moment it exists."""
        if isinstance(result, TaskFailure):
            outcome = TaskOutcome(key=task.key, failure=result, attempts=result.attempts)
        else:
            outcome = TaskOutcome(
                key=task.key, value=result.value, wall_s=result.wall_s,
                attempts=result.attempt, worker=result.pid,
            )
        outcomes[task.key] = outcome
        if cache is not None and outcome.ok and task.cache_key is not None:
            cache.put(task.cache_key, outcome.value)
        if manifest is not None:
            manifest.record(task.key, outcome)
        if plane is not None and task.plane_keys:
            plane.release(task.plane_keys)

    if pending:
        parallel = executor is None and int(jobs) > 1
        if parallel:
            unpicklable = [task.key for task in pending if not _is_picklable(task)]
            if unpicklable:
                obs.emit(
                    "run/serial-fallback", tasks=unpicklable, reason="not picklable"
                )
                parallel = False
        if parallel:
            obs.emit("run/pool", jobs=int(jobs), tasks=len(pending))
            executor = LocalPoolExecutor(
                int(jobs), max_respawns=len(pending) * faults.max_attempts
            )
        elif executor is None:
            executor = SerialExecutor()
        schedule(
            pending, executor, finished, faults, interruptible=interruptible,
            fail_fast=fail_fast, poison_k=poison_k,
        )

    for outcome in outcomes.values():
        obs.incr("task/ok" if outcome.ok else "task/failed")

    remaining = tuple(key for key in keys if key not in outcomes)
    if remaining:  # only a drained interrupt leaves tasks undecided
        obs.emit(
            "run/interrupted", completed=len(outcomes), remaining=len(remaining)
        )
        raise CampaignInterrupted(len(outcomes), remaining)
    return [outcomes[key] for key in keys]
