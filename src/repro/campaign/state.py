"""On-disk campaign state: journal locations and read-only loading.

A campaign's cells are journalled by :func:`repro.harness.run_tasks`
through :class:`repro.harness.checkpoint.CampaignManifest` (JSONL
journal + checksummed result store), each failure under the engine's
own failure kind.  This module adds the *read-only* side the
``jmmw campaign status|report`` subcommands need: rebuild a result
from a journal without opening it for writing.  That matters because
:meth:`CampaignManifest.open_resume` **truncates** a journal it cannot
resume — a status query must never be able to destroy state, so it
parses with the manifest's own read-only
:func:`repro.harness.checkpoint.read_journal` instead.

Journals live under ``<cache dir>/campaigns/<study>.jsonl`` (honouring
``JMMW_CACHE_DIR``), one per named study, alongside their ``.store``
result sidecars.
"""

from __future__ import annotations

from pathlib import Path

from repro.campaign.scheduler import (
    STATUS_FAILED,
    CampaignResult,
    CellOutcome,
    cell_outcome,
)
from repro.campaign.table import CampaignSpec
from repro.harness.cache import ResultCache, default_cache_dir
from repro.harness.checkpoint import read_journal
from repro.harness.faults import TaskFailure
from repro.harness.runner import TaskOutcome

#: Read-only status for a cell the journal has no final record for.
STATUS_PENDING = "pending"


def campaign_root() -> Path:
    """Directory holding every study's journal and result store."""
    return default_cache_dir() / "campaigns"


def journal_path(study: str) -> Path:
    return campaign_root() / f"{study}.jsonl"


def result_from_journal(
    spec: CampaignSpec, path: str | Path | None = None
) -> CampaignResult:
    """Rebuild a :class:`CampaignResult` from a journal, without running.

    Cells with no final record yet are ``pending``.  Every other record
    maps to its status through :func:`~repro.campaign.scheduler.
    cell_outcome`, the live run's own mapping: failures from the
    engine's failure kind the journal holds, ok cells loaded back from
    the result store — so the report's mean ± std tables and its
    degradation lines match the live run's exactly.
    """
    path = Path(path) if path is not None else journal_path(spec.name)
    header, records = read_journal(path)
    by_key = {r["task"]: r for r in records if isinstance(r.get("task"), str)}
    store = ResultCache(path.with_suffix(".store")) if header else None
    outcomes = []
    for cell in spec.table.cells():
        record = by_key.get(cell.key)
        if record is None:
            outcomes.append(
                CellOutcome(
                    cell=cell, status=STATUS_PENDING,
                    error="no result journalled yet (campaign incomplete?)",
                )
            )
            continue
        attempts = int(record.get("attempts") or 0)
        if record.get("status") == "ok":
            hit, value = (False, None)
            ref = record.get("ref")
            if store is not None and isinstance(ref, str):
                hit, value = store.get(ref)
            if not hit:
                outcomes.append(
                    CellOutcome(
                        cell=cell, status=STATUS_PENDING,
                        error="journalled ok but result store entry is gone",
                        attempts=attempts,
                    )
                )
                continue
            outcome = TaskOutcome(cell.key, value=value, attempts=attempts, cached=True)
        else:
            failure = TaskFailure(
                cell.key, str(record.get("kind") or STATUS_FAILED),
                str(record.get("error") or ""), attempts,
            )
            outcome = TaskOutcome(cell.key, failure=failure, attempts=attempts)
        outcomes.append(cell_outcome(cell, outcome))
    desc = "(from journal)" if header else "(no journal found)"
    return CampaignResult(
        spec=spec, outcomes=tuple(outcomes), executor_desc=desc
    )
