"""Exception hierarchy for the repro package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch one type at an API boundary.  Sub-types distinguish
configuration mistakes (caller bugs) from simulation-state violations
(library bugs or corrupted inputs).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ConfigError(ReproError):
    """A configuration value is invalid or inconsistent.

    Raised during construction of config objects and simulators, never
    mid-simulation: every config is validated eagerly so that a bad
    parameter fails before any cycles are spent.
    """


class SimulationError(ReproError):
    """The simulation reached an inconsistent internal state.

    Seeing this exception indicates a bug in the library (e.g. a
    coherence invariant violation), not a user mistake.
    """


class InvariantViolation(SimulationError):
    """A runtime model invariant failed while the simulation ran.

    Raised by :class:`repro.memsys.invariants.InvariantChecker` when a
    sampled check finds illegal coherence state (two MODIFIED copies,
    a stale ``holders`` mirror), an L1/L2 inclusion hole, or counters
    that stopped conserving (``hits + misses != refs``).  Carries a
    diagnostic ``dump`` — the per-cache state of the offending block
    plus a ring buffer of the most recent accesses — so the corruption
    is debuggable post-mortem instead of surfacing thousands of
    references later as a silently wrong curve.
    """

    def __init__(self, message: str, dump: str = "") -> None:
        super().__init__(message if not dump else f"{message}\n{dump}")
        self.message = message
        self.dump = dump


class WorkloadError(ReproError):
    """A workload was asked to do something outside its model.

    Examples: requesting more processors than the workload has threads
    for, or a scale factor outside the supported range.
    """


class AnalysisError(ReproError):
    """An analysis routine received data it cannot interpret."""


class TraceFileError(AnalysisError):
    """A persisted trace file failed validation on load.

    Raised by :func:`repro.memsys.tracefile.load_trace` for anything
    short of a well-formed archive: a truncated or non-zip file, a
    missing per-CPU array, a wrong dtype or shape, or a header that
    does not describe the arrays it shipped with.  Subclasses
    :class:`AnalysisError` so existing callers that catch the broad
    type keep working; new callers can catch the precise one.
    """


class HarnessError(ReproError):
    """The experiment harness could not execute a batch of tasks.

    Raised for harness-level misuse (duplicate task keys, invalid
    fault policies) — never for an individual task raising, which the
    harness captures as a :class:`repro.harness.TaskFailure` instead.
    """


class TracePlaneError(HarnessError):
    """The trace plane refused an unsafe operation.

    Raised when attaching a :class:`repro.harness.traceplane.TraceRef`
    that no longer matches reality: the trace file was removed
    (campaign ended), it is truncated, or the ref belongs to a
    different plane *generation* than the file it points at.  The
    contract is fail-loud: a stale or damaged ref must never resolve
    to silently wrong trace data.
    """


class CampaignInterrupted(ReproError):
    """A campaign stopped early on SIGINT/SIGTERM after a clean drain.

    Raised by :func:`repro.harness.run_tasks` (``interruptible=True``)
    once in-flight tasks have finished and their results are persisted
    to the campaign manifest.  Completed work is not lost: re-running
    the same campaign with ``--resume`` skips it bit-identically.
    """

    def __init__(self, completed: int, remaining: tuple[str, ...]) -> None:
        super().__init__(
            f"campaign interrupted: {completed} task(s) completed, "
            f"{len(remaining)} remaining"
        )
        self.completed = completed
        self.remaining = remaining
