"""Fault-tolerance policy for harness tasks.

Long measurement campaigns (hundreds of sweep points x replicas) must
survive an occasional bad task: a replica that trips a simulator
invariant, a worker process that dies, a run that hangs.  The policy
here is deliberately simple and deterministic — bounded retry with
capped, jittered exponential backoff, an optional per-task wall-clock
timeout — and the outcome of a task that exhausts it is a
:class:`TaskFailure` *record*, not an exception: the engine
(:mod:`repro.harness.engine`) reports the failure and the rest of the
batch completes (graceful degradation).  A pool worker past the
timeout is killed and respawned; in-process work cannot be preempted,
so its timeout is judged after the fact.  Timeouts retry only with
``retry_timeouts=True``; a crashed worker (``KIND_BROKEN_POOL``) always
retries under the policy, since worker death is usually environmental
(OOM kill, preemption), not a property of the task.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.errors import ConfigError

#: Failure kinds recorded by the runner.
KIND_ERROR = "error"  # the task function raised
KIND_TIMEOUT = "timeout"  # wall clock exceeded FaultPolicy.timeout_s
KIND_BROKEN_POOL = "broken-pool"  # the worker process died
KIND_ABORTED = "aborted"  # batch stopped early (fail_fast) before this task ran
KIND_POISONED = "poisoned"  # killed poison_k consecutive workers (campaigns)
KIND_MISSING = "missing"  # never run: no worker left (respawn budget spent)


@dataclass(frozen=True)
class FaultPolicy:
    """How the runner treats a task that fails.

    ``max_attempts`` counts the first try: the default policy (1) never
    retries.  ``timeout_s`` is a per-attempt wall-clock budget; ``None``
    disables it.  ``retry_timeouts`` makes a timed-out attempt
    retryable like any other failure — identically on the serial and
    pool paths (serial discards the overtime result instead of keeping
    it, so both paths converge on the same outcome).

    Retry delays grow as ``backoff_s * backoff_factor ** (attempt -
    1)``, capped at ``backoff_max_s`` (``None`` = uncapped), then
    spread by up to ``±jitter`` (a fraction of the delay) so
    simultaneous retries across a worker fleet do not re-synchronize
    into thundering herds.  The jitter is *deterministic*: it hashes
    ``(jitter_seed, key, attempt)``, so :meth:`delay` is a pure
    function and chaos/replay runs stay reproducible.
    """

    timeout_s: float | None = None
    max_attempts: int = 1
    backoff_s: float = 0.05
    backoff_factor: float = 2.0
    backoff_max_s: float | None = None
    jitter: float = 0.0
    jitter_seed: int = 0
    retry_timeouts: bool = False

    def __post_init__(self) -> None:
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ConfigError("timeout_s must be positive (or None)")
        if self.max_attempts < 1:
            raise ConfigError("max_attempts must be at least 1")
        if self.backoff_s < 0:
            raise ConfigError("backoff_s must be non-negative")
        if self.backoff_factor < 1.0:
            raise ConfigError("backoff_factor must be >= 1")
        if self.backoff_max_s is not None and self.backoff_max_s <= 0:
            raise ConfigError("backoff_max_s must be positive (or None)")
        if not 0.0 <= self.jitter <= 1.0:
            raise ConfigError("jitter must be in [0, 1]")

    def should_retry(self, attempt: int) -> bool:
        """Whether a failure on ``attempt`` (1-based) warrants another try."""
        return attempt < self.max_attempts

    def retryable(self, kind: str) -> bool:
        """Whether failures of ``kind`` participate in retries at all."""
        if kind == KIND_TIMEOUT:
            return self.retry_timeouts
        return kind != KIND_ABORTED

    def delay(self, attempt: int, key: str = "") -> float:
        """Backoff before the retry following ``attempt`` (1-based).

        Pure: the same ``(policy, attempt, key)`` always yields the
        same delay.  ``key`` (typically the task key) decorrelates the
        jitter across tasks retrying after the same attempt count.
        """
        base = self.backoff_s * self.backoff_factor ** (attempt - 1)
        if self.backoff_max_s is not None:
            base = min(base, self.backoff_max_s)
        if self.jitter:
            digest = hashlib.sha256(
                f"{self.jitter_seed}\0{key}\0{attempt}".encode()
            ).digest()
            frac = int.from_bytes(digest[:8], "little") / 2**64  # [0, 1)
            base *= 1.0 + self.jitter * (2.0 * frac - 1.0)
        return max(0.0, base)


@dataclass(frozen=True)
class TaskFailure:
    """Why one task ultimately failed (after any retries)."""

    key: str
    kind: str  # one of the KIND_* constants above
    error: str  # repr of the exception, or a timeout description
    attempts: int = 1

    def __str__(self) -> str:
        return f"{self.key}: {self.kind} after {self.attempts} attempt(s): {self.error}"
