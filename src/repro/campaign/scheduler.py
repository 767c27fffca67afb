"""The fault-tolerant campaign scheduler.

Expands a :class:`~repro.campaign.table.CampaignSpec` into cells and
runs them as one batch of :func:`repro.harness.run_tasks`, serially or
on the worker pool that ``--jobs N`` uses.  The engine under it
(:func:`repro.harness.engine.schedule`) owns every failure rule —
worker death seen through the process sentinel, leases reclaimed past
the per-cell wall-clock budget, bounded retry with jittered backoff,
quarantine of a cell that kills ``poison_k`` consecutive workers, and
graceful degradation to ``missing`` cells when the respawn budget runs
out — and records every attempt as a ``task/*`` event; a
:class:`CampaignPolicy` tunes them.

This module keeps only the campaign's own bookkeeping: run-table
expansion, the :class:`CellOutcome` statuses (:func:`cell_outcome`,
shared with the journal reader), the ``campaign/start|end|degraded``
events and the cell-status counters.  Completed cells are journaled as
they land (fsynced), keyed by the campaign signature, and a re-run
with the journal serves them back bit-identically (``resume/skip``).
With a result cache, each cell is also cached under its
:meth:`~repro.campaign.table.CampaignSpec.cell_key`, which ignores the
table's shape (``jmmw characterize --runs R`` passes one; ``jmmw
campaign run`` does not).  ``interruptible=True`` drains in-flight
cells on SIGINT/SIGTERM and raises
:class:`~repro.errors.CampaignInterrupted`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro import obs
from repro.campaign.table import CampaignSpec, Cell
from repro.errors import ConfigError
from repro.harness.faults import KIND_MISSING, KIND_POISONED, FaultPolicy
from repro.harness.runner import Task, TaskOutcome, run_tasks

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.harness.cache import ResultCache
    from repro.harness.checkpoint import CampaignManifest

#: Cell outcome statuses.
STATUS_OK = "ok"
STATUS_FAILED = "failed"  # any other failure kind, e.g. retries exhausted
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
    cached: bool = False  # served from the manifest (resume) or the cache

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


def cell_outcome(cell: Cell, outcome: TaskOutcome) -> CellOutcome:
    """The cell's status from its task's outcome, live or journalled.

    ``poisoned`` and ``missing`` are the engine's own failure kinds;
    every other failure is ``failed``, its error prefixed with the kind
    (``error``, ``timeout``, ``broken-pool``, ...).
    """
    failure = outcome.failure
    if failure is None:
        return CellOutcome(
            cell=cell, status=STATUS_OK, value=outcome.value,
            attempts=outcome.attempts, wall_s=outcome.wall_s,
            worker=outcome.worker, cached=outcome.cached,
        )
    status, error = failure.kind, failure.error
    if status not in (STATUS_POISONED, STATUS_MISSING):
        status, error = STATUS_FAILED, f"{failure.kind}: {error}"
    return CellOutcome(cell=cell, status=status, error=error, attempts=failure.attempts)


def run_campaign(
    spec: CampaignSpec,
    executor: Any,
    *,
    policy: CampaignPolicy | None = None,
    manifest: "CampaignManifest | None" = None,
    interruptible: bool = False,
    cache: "ResultCache | None" = None,
    fail_fast: bool = False,
) -> CampaignResult:
    """Run every cell of ``spec`` as one :func:`run_tasks` batch over
    ``executor``; never raises for a cell — failures, quarantines and
    degradation land in the result.

    ``executor`` is a :class:`~repro.harness.engine.SerialExecutor` or
    a :class:`~repro.harness.engine.LocalPoolExecutor`; it starts only
    if ``manifest`` and ``cache`` leave a cell to run.  With a
    ``cache``, each cell is keyed by :meth:`CampaignSpec.cell_key`;
    ``fail_fast`` stops dispatching at the first failed cell (the rest
    fail ``aborted``).  Raises
    :class:`~repro.errors.CampaignInterrupted` after a drained
    SIGINT/SIGTERM (``interruptible=True`` only), with completed cells
    already persisted to ``manifest``.
    """
    policy = policy if policy is not None else CampaignPolicy()
    cells = spec.table.cells()
    obs.emit(
        "campaign/start", campaign=spec.name, cells=len(cells),
        executor=executor.describe(),
    )
    obs.incr("campaign/cells_total", len(cells))

    tasks = [
        Task(
            cell.key, spec.fn, *spec.cell_args(cell),
            cache_key=spec.cell_key(cell) if cache is not None else None,
        )
        for cell in cells
    ]
    results = run_tasks(
        tasks, executor=executor, cache=cache, faults=policy.faults,
        manifest=manifest, fail_fast=fail_fast, interruptible=interruptible,
        poison_k=policy.poison_k,
    )
    outcomes = tuple(map(cell_outcome, cells, results))
    for outcome in outcomes:
        if not outcome.cached:  # decided in this run, not served back
            obs.incr(f"campaign/cells_{outcome.status}")

    missing = sum(1 for outcome in outcomes if outcome.status == STATUS_MISSING)
    if missing:
        obs.emit(
            "campaign/degraded", missing=missing, executor=executor.describe()
        )
    obs.emit(
        "campaign/end", campaign=spec.name,
        ok=sum(1 for outcome in outcomes if outcome.ok), cells=len(cells),
    )
    return CampaignResult(
        spec=spec, outcomes=outcomes, executor_desc=executor.describe()
    )
