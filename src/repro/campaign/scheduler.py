"""The fault-tolerant campaign scheduler.

Expands a :class:`~repro.campaign.table.CampaignSpec` into cells and
runs them on the harness's execution engine
(:func:`repro.harness.engine.schedule`), serially or on the worker
pool that ``--jobs N`` uses.  The engine owns every failure rule —
worker death seen through the process sentinel, leases reclaimed past
the per-cell wall-clock budget, bounded retry with jittered backoff,
quarantine of a cell that kills ``poison_k`` consecutive workers, and
graceful degradation to ``missing`` cells when the respawn budget runs
out — and a :class:`CampaignPolicy` tunes them.

This module keeps only the campaign's own bookkeeping: run-table
expansion and resume, the :class:`CellOutcome` statuses, and the
``campaign/*`` events and cell-status counters.  Completed cells are
journaled as they land (fsynced), keyed by the campaign signature, and
a re-run serves them back bit-identically.  ``interruptible=True``
drains in-flight cells on SIGINT/SIGTERM and raises
:class:`~repro.errors.CampaignInterrupted`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro import obs
from repro.campaign.table import CampaignSpec, Cell
from repro.errors import CampaignInterrupted, ConfigError
from repro.harness.engine import Client, Done, schedule
from repro.harness.faults import (
    KIND_BROKEN_POOL,
    KIND_MISSING,
    KIND_POISONED,
    FaultPolicy,
    TaskFailure,
)
from repro.harness.runner import Task, TaskOutcome

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.harness.checkpoint import CampaignManifest

#: Cell outcome statuses.
STATUS_OK = "ok"
STATUS_FAILED = "failed"  # in-task errors exhausted the retry budget
STATUS_POISONED = KIND_POISONED  # killed poison_k consecutive workers
STATUS_MISSING = KIND_MISSING  # never completed: executor degraded away


@dataclass(frozen=True)
class CampaignPolicy:
    """Resilience knobs for one campaign run.

    ``faults`` supplies the retry budget, backoff shape and per-cell
    wall-clock timeout shared with the harness runner; the timeout is
    the one rule for a hung or wedged worker.  The campaign defaults
    retry twice with capped jittered backoff — campaigns are long; a
    transient fault must not cost a cell.
    """

    faults: FaultPolicy = field(
        default_factory=lambda: FaultPolicy(
            max_attempts=3, backoff_s=0.05, backoff_factor=2.0,
            backoff_max_s=2.0, jitter=0.5,
        )
    )
    #: Consecutive worker kills that quarantine a cell.
    poison_k: int = 2

    def __post_init__(self) -> None:
        if self.poison_k < 1:
            raise ConfigError("poison_k must be at least 1")


@dataclass(frozen=True)
class CellOutcome:
    """What finally happened to one cell of the run table."""

    cell: Cell
    status: str
    value: object = None
    error: str = ""
    attempts: int = 0
    wall_s: float = 0.0
    worker: int | None = None
    cached: bool = False  # served from the manifest (resume)

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK


@dataclass(frozen=True)
class CampaignResult:
    """Every cell's outcome, in table order, plus degradation facts."""

    spec: CampaignSpec
    outcomes: tuple
    executor_desc: str

    def by_status(self, status: str) -> list[CellOutcome]:
        return [outcome for outcome in self.outcomes if outcome.status == status]

    @property
    def complete(self) -> bool:
        return all(outcome.ok for outcome in self.outcomes)

    @property
    def degraded(self) -> bool:
        return not self.complete


class _CampaignClient(Client):
    """``run_campaign``'s view of the engine: ``campaign/*`` events, outcomes."""

    def __init__(self, cells, completed, faults, manifest) -> None:
        self.cells: dict[str, Cell] = cells
        self.completed: dict[str, CellOutcome] = completed
        self.timeout_s = faults.timeout_s
        self.manifest: "CampaignManifest | None" = manifest

    def started(self, unit: Task, attempt: int, wid: int, pid: int) -> None:
        obs.emit("campaign/cell-start", cell=unit.key, attempt=attempt, worker=wid)

    def errored(self, unit: Task, attempt: int, error: str) -> None:
        obs.emit("campaign/cell-error", cell=unit.key, attempt=attempt, error=error)

    def retrying(self, unit: Task, attempt: int) -> None:
        obs.emit("campaign/cell-retry", cell=unit.key, attempt=attempt)

    def died(self, wid: int, exitcode: int | None, unit: Task | None) -> None:
        obs.emit(
            "campaign/worker-dead", worker=wid, exitcode=exitcode,
            cell=unit.key if unit is not None else None,
        )

    def reclaimed(self, unit: Task, attempt: int, wid: int, reason: str) -> None:
        obs.emit("campaign/lease-reclaimed", cell=unit.key, worker=wid, reason=reason)

    def overran(self, unit: Task, attempt: int, wall_s: float, kept: bool) -> None:
        obs.emit(
            "campaign/cell-overtime" if kept else "campaign/cell-timeout",
            cell=unit.key, attempt=attempt, wall_s=round(wall_s, 6),
            timeout_s=self.timeout_s,
        )

    def finished(self, unit: Task, result: Done | TaskFailure) -> None:
        cell = self.cells[unit.key]
        if isinstance(result, Done):
            obs.emit(
                "campaign/cell-ok", cell=unit.key, attempt=result.attempt,
                wall_s=round(result.wall_s, 6), worker=result.wid,
            )
            outcome = CellOutcome(
                cell=cell, status=STATUS_OK, value=result.value,
                attempts=result.attempt, wall_s=result.wall_s, worker=result.wid,
            )
        elif result.kind in (KIND_POISONED, KIND_MISSING):
            if result.kind == KIND_POISONED:
                obs.emit(
                    "campaign/cell-poisoned", cell=unit.key, diagnostics=result.error
                )
            else:
                obs.emit("campaign/cell-missing", cell=unit.key)
            outcome = CellOutcome(
                cell=cell, status=result.kind, error=result.error,
                attempts=result.attempts,
            )
        else:
            kind = "broken-worker" if result.kind == KIND_BROKEN_POOL else result.kind
            outcome = CellOutcome(
                cell=cell, status=STATUS_FAILED, error=f"{kind}: {result.error}",
                attempts=result.attempts,
            )
        self.record(outcome)

    def record(self, outcome: CellOutcome) -> None:
        key = outcome.cell.key
        self.completed[key] = outcome
        obs.incr(f"campaign/cells_{outcome.status}")
        if self.manifest is not None:
            failure = None if outcome.ok else TaskFailure(
                key=key, kind=outcome.status, error=outcome.error,
                attempts=outcome.attempts,
            )
            self.manifest.record(key, TaskOutcome(
                key=key, value=outcome.value, failure=failure,
                wall_s=outcome.wall_s, attempts=outcome.attempts,
            ))


def run_campaign(
    spec: CampaignSpec,
    executor: Any,
    *,
    policy: CampaignPolicy | None = None,
    manifest: "CampaignManifest | None" = None,
    interruptible: bool = False,
) -> CampaignResult:
    """Run every cell of ``spec`` over ``executor``; never raises for a
    cell — failures, quarantines and degradation land in the result.

    ``executor`` is a :class:`~repro.harness.engine.SerialExecutor` or
    a :class:`~repro.harness.engine.LocalPoolExecutor`.  Raises
    :class:`CampaignInterrupted` after a drained SIGINT/SIGTERM
    (``interruptible=True`` only), with completed cells already
    persisted to ``manifest``.
    """
    policy = policy if policy is not None else CampaignPolicy()
    cells = spec.table.cells()
    completed: dict[str, CellOutcome] = {}

    obs.emit(
        "campaign/start", campaign=spec.name, cells=len(cells),
        executor=executor.describe(),
    )
    obs.incr("campaign/cells_total", len(cells))

    units = []
    for cell in cells:
        if manifest is not None:
            hit, value = manifest.lookup(cell.key)
            if hit:  # resume: serve cells the manifest already holds
                obs.emit("campaign/resume-skip", cell=cell.key)
                completed[cell.key] = CellOutcome(
                    cell=cell, status=STATUS_OK, value=value, cached=True
                )
                continue
        args, kwargs = spec.cell_args(cell)
        units.append(Task(key=cell.key, fn=spec.fn, args=args, kwargs=kwargs))

    client = _CampaignClient(
        {cell.key: cell for cell in cells}, completed, policy.faults, manifest,
    )
    schedule(
        units, executor, client, policy.faults,
        interruptible=interruptible, poison_k=policy.poison_k,
    )

    missing = sum(1 for o in completed.values() if o.status == STATUS_MISSING)
    if missing:
        obs.emit(
            "campaign/degraded", missing=missing, executor=executor.describe()
        )
    if len(completed) < len(cells):
        remaining = tuple(
            cell.key for cell in cells if cell.key not in completed
        )
        obs.emit(
            "campaign/interrupted", completed=len(completed),
            remaining=len(remaining),
        )
        raise CampaignInterrupted(len(completed), remaining)

    obs.emit(
        "campaign/end", campaign=spec.name,
        ok=sum(1 for o in completed.values() if o.ok),
        cells=len(cells),
    )
    return CampaignResult(
        spec=spec,
        outcomes=tuple(completed[cell.key] for cell in cells),
        executor_desc=executor.describe(),
    )
