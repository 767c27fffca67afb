"""The fault-tolerant campaign scheduler.

Expands a :class:`~repro.campaign.table.CampaignSpec` into cells and
runs them on the harness's execution engine
(:func:`repro.harness.engine.schedule`) over any of its three
executors.  The engine owns every failure rule — leases reclaimed on
heartbeat silence or an over-budget wall clock, bounded retry with
jittered backoff, quarantine of a cell that kills ``poison_k``
consecutive workers, straggler speculation (first result wins; a loser
returning *different bits* is flagged loudly as ``divergent``), and
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

import pickle
from dataclasses import dataclass, field, replace
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
    wall-clock timeout shared with the harness runner.  The campaign
    defaults retry twice with capped jittered backoff — campaigns are
    long; a transient fault must not cost a cell.
    """

    faults: FaultPolicy = field(
        default_factory=lambda: FaultPolicy(
            max_attempts=3, backoff_s=0.05, backoff_factor=2.0,
            backoff_max_s=2.0, jitter=0.5,
        )
    )
    #: Heartbeat silence (s) after which a lease is reclaimed by force
    #: (heartbeat executors only).
    lease_timeout_s: float = 10.0
    #: Consecutive worker kills that quarantine a cell.
    poison_k: int = 2
    #: Speculative re-execution of stragglers (first result wins).
    speculate: bool = True
    straggler_factor: float = 4.0
    straggler_min_s: float = 1.0

    def __post_init__(self) -> None:
        if self.lease_timeout_s <= 0:
            raise ConfigError("lease_timeout_s must be positive")
        if self.poison_k < 1:
            raise ConfigError("poison_k must be at least 1")
        if self.straggler_factor <= 1.0:
            raise ConfigError("straggler_factor must be > 1")
        if self.straggler_min_s < 0:
            raise ConfigError("straggler_min_s must be non-negative")


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
    divergent: bool = False  # a speculative duplicate returned different bits

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


def _value_digest(value: object) -> bytes:
    """Bit-identity fingerprint for speculative-result comparison."""
    import hashlib

    return hashlib.sha256(
        pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    ).digest()


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

    def reclaimed(
        self, unit: Task, attempt: int, wid: int, kind: str, reason: str
    ) -> None:
        obs.emit("campaign/lease-reclaimed", cell=unit.key, worker=wid, reason=reason)

    def overran(self, unit: Task, attempt: int, wall_s: float, kept: bool) -> None:
        obs.emit(
            "campaign/cell-overtime" if kept else "campaign/cell-timeout",
            cell=unit.key, attempt=attempt, wall_s=round(wall_s, 6),
            timeout_s=self.timeout_s,
        )

    def speculating(self, unit: Task, straggler: int, duplicate: int) -> None:
        obs.emit(
            "campaign/speculate", cell=unit.key, straggler_worker=straggler,
            duplicate_worker=duplicate,
        )

    def late(self, unit: Task, done: Done) -> None:
        # A speculative loser (or a late duplicate) came back after the
        # cell already completed: its only job now is to agree.
        winner = self.completed[unit.key]
        if (
            done.ok and winner.ok
            and _value_digest(done.value) != _value_digest(winner.value)
        ):
            obs.emit(
                "campaign/divergent", cell=unit.key,
                winner_worker=winner.worker, loser_worker=done.wid,
            )
            self.completed[unit.key] = replace(winner, divergent=True)

    def abandoned(self, unit: Task, wid: int) -> None:
        obs.emit("campaign/duplicate-abandoned", cell=unit.key, worker=wid)

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

    ``executor`` is a :class:`~repro.harness.engine.SerialExecutor`,
    :class:`~repro.harness.engine.LocalPoolExecutor` or
    :class:`~repro.harness.engine.SubprocessFleetExecutor`.  Raises
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
        lease_timeout_s=policy.lease_timeout_s, speculate=policy.speculate,
        straggler_factor=policy.straggler_factor,
        straggler_min_s=policy.straggler_min_s,
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
