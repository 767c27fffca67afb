"""Fault-tolerant run-table campaigns on the harness's execution engine.

The paper's methodology is a *run table* — configurations x sizes x
repetitions, reported mean ± std — and this package executes one
end-to-end, surviving the failures long campaigns actually hit.  Its
reps are the package's one multi-run mechanism: ``jmmw characterize
--runs R`` runs a one-point table of R reps
(:func:`repro.campaign.studies.characterize_spec`).

- :mod:`repro.campaign.table` — declarative run tables
  (:class:`Axis` / :class:`RunTable` / :class:`CampaignSpec`);
- :mod:`repro.campaign.scheduler` — :func:`run_campaign`, which runs
  the cells as one :func:`repro.harness.run_tasks` batch on the one
  execution engine (:mod:`repro.harness.engine`): the engine owns
  leases, per-cell timeouts, retries, poisoned-cell quarantine and
  graceful degradation, ``run_tasks`` the journal, resume and the
  optional per-cell result cache, and the scheduler keeps the cells'
  statuses and ``campaign/*`` events;
- the engine's two executors, re-exported here:
  :class:`SerialExecutor` (in-process, the reference) and
  :class:`LocalPoolExecutor` (a pool of owned worker processes, the
  one ``--jobs N`` runs on);
- :mod:`repro.campaign.report` — :func:`~repro.campaign.report.summarize`,
  the one mean ± std over reps, and deterministic reports with
  explicit degradation sections;
- :mod:`repro.campaign.state` — read-only journal loading for
  ``jmmw campaign status|report``;
- :mod:`repro.campaign.studies` — the named run tables the CLI knows,
  and the characterize table.

Results are bit-identical across executors by contract: the serial
executor is the reference, and the chaos suite proves a pool campaign
ridden with injected faults still reproduces its bits cell for cell.
"""

from repro.campaign.scheduler import (
    STATUS_FAILED,
    STATUS_MISSING,
    STATUS_OK,
    STATUS_POISONED,
    CampaignPolicy,
    CampaignResult,
    CellOutcome,
    run_campaign,
)
from repro.campaign.table import Axis, CampaignSpec, Cell, RunTable
from repro.harness.engine import LocalPoolExecutor, SerialExecutor

__all__ = [
    "Axis",
    "CampaignPolicy",
    "CampaignResult",
    "CampaignSpec",
    "Cell",
    "CellOutcome",
    "LocalPoolExecutor",
    "RunTable",
    "STATUS_FAILED",
    "STATUS_MISSING",
    "STATUS_OK",
    "STATUS_POISONED",
    "SerialExecutor",
    "run_campaign",
]
