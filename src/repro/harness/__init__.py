"""Parallel experiment harness.

The execution layer under every sweep, figure, multi-run experiment
and campaign:

- :mod:`repro.harness.engine` — the one execution engine: one worker
  process pool, the in-process serial executor, and one scheduling
  loop that owns every failure rule (retry, timeouts, worker death,
  quarantine, degradation, the SIGINT drain);
- :mod:`repro.harness.runner` — :func:`run_tasks`, the engine's client
  for task batches (parallel results are bit-identical to serial);
- :mod:`repro.harness.cache` — content-addressed on-disk result cache
  keyed by config + workload + replica + code version, with
  checksummed entries and quarantine for corrupt ones;
- :mod:`repro.harness.checkpoint` — campaign manifest journaling
  completed tasks so an interrupted run resumes bit-identically;
- :mod:`repro.harness.faults` — per-task timeout, bounded retry, and
  graceful degradation (a failed replica is reported, not fatal);
- :mod:`repro.harness.chaos` — test-only deterministic fault injection
  (worker crashes, hangs, poisoned cells, corrupt cache entries);
- :mod:`repro.harness.tasks` — the picklable task functions the CLI
  and experiment layer fan out;
- :mod:`repro.harness.traceplane` — generate-once/replay-many trace
  sharing through memory-mapped files: the campaign parent publishes
  each trace bundle once into the plane's own directory, workers
  attach by :class:`TraceRef`, and the directory is removed at
  campaign end (crash-safe: the next campaign start removes the
  directories of dead processes).

Quickstart::

    from repro.harness import FaultPolicy, Task, run_tasks

    tasks = [Task(key=f"p{p}", fn=measure, args=(p,)) for p in (1, 2, 4, 8)]
    outcomes = run_tasks(tasks, jobs=4, faults=FaultPolicy(max_attempts=2))
    values = {o.key: o.value for o in outcomes if o.ok}

Every step of a batch (``task/*``, ``cache/*``, ``run/*``) is recorded
through :func:`repro.obs.emit`: counted in :data:`repro.obs.COUNTERS`
and, under ``--obs PATH``, streamed to the run's JSONL file.
"""

from repro.harness.cache import (
    ResultCache,
    code_version,
    content_key,
    default_cache_dir,
    sim_fields,
)
from repro.harness.checkpoint import CampaignManifest
from repro.harness.faults import (
    KIND_ABORTED,
    KIND_BROKEN_POOL,
    KIND_ERROR,
    KIND_TIMEOUT,
    FaultPolicy,
    TaskFailure,
)
from repro.harness.runner import Task, TaskOutcome, run_tasks
from repro.harness.traceplane import (
    TracePlane,
    TraceRef,
    TraceSpec,
    sweep_stale,
)

__all__ = [
    "ResultCache",
    "code_version",
    "content_key",
    "default_cache_dir",
    "sim_fields",
    "CampaignManifest",
    "KIND_ABORTED",
    "KIND_BROKEN_POOL",
    "KIND_ERROR",
    "KIND_TIMEOUT",
    "FaultPolicy",
    "TaskFailure",
    "Task",
    "TaskOutcome",
    "run_tasks",
    "TracePlane",
    "TraceRef",
    "TraceSpec",
    "sweep_stale",
]
