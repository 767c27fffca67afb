"""Multi-run experiment support (variability methodology).

The paper uses the methodology of Alameldeen & Wood (HPCA 2003) to
account for the inherent run-to-run variability of multithreaded
commercial workloads: each simulated configuration is run several
times with small perturbations, and results are reported as means with
standard deviations (the paper's error bars).

Here a *run* is a callable taking an :class:`~repro.rng.RngFactory`
(already perturbed with a distinct ``run_index``) and returning either
a float or a mapping of named floats.

Replicas are independent, so they parallelize: pass ``jobs > 1`` (plus
an optional cache and fault policy) and the runs fan out through
:mod:`repro.harness`.  Because each replica's perturbation is
fully determined by ``(seed, run_index)``, parallel samples are
bit-identical to serial ones.  Under a fault policy, a replica that
raises is excluded from the :class:`MultiRunResult` (and reported as
a ``task/error`` event) instead of aborting the experiment — the run
degrades to fewer samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Mapping

from repro.errors import AnalysisError
from repro.rng import RngFactory

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.harness.cache import ResultCache
    from repro.harness.checkpoint import CampaignManifest
    from repro.harness.faults import FaultPolicy, TaskFailure


@dataclass(frozen=True)
class MultiRunResult:
    """Mean and standard deviation of one measured quantity."""

    name: str
    samples: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.samples:
            raise AnalysisError(f"{self.name}: no samples")

    @property
    def n(self) -> int:
        return len(self.samples)

    @property
    def mean(self) -> float:
        return sum(self.samples) / len(self.samples)

    @property
    def std(self) -> float:
        """Sample standard deviation (0 for a single run)."""
        n = len(self.samples)
        if n < 2:
            return 0.0
        mu = self.mean
        return math.sqrt(sum((x - mu) ** 2 for x in self.samples) / (n - 1))

    @property
    def error_bar(self) -> tuple[float, float]:
        """(mean - std, mean + std), the paper's error-bar convention."""
        return self.mean - self.std, self.mean + self.std

    def __str__(self) -> str:
        if self.n == 1:
            return f"{self.name}={self.mean:.4g}"
        return f"{self.name}={self.mean:.4g} ± {self.std:.2g} (n={self.n})"


RunFn = Callable[[RngFactory], Mapping[str, float] | float]


def _as_items(result: Mapping[str, float] | float, name: str) -> list[tuple[str, float]]:
    if isinstance(result, Mapping):
        return [(key, float(value)) for key, value in result.items()]
    return [(name, float(result))]


def _collect(
    per_run: list[list[tuple[str, float]]],
) -> dict[str, MultiRunResult]:
    collected: dict[str, list[float]] = {}
    expected_keys: set[str] | None = None
    for items in per_run:
        keys = {key for key, _ in items}
        if expected_keys is None:
            expected_keys = keys
        elif keys != expected_keys:
            raise AnalysisError("runs reported inconsistent sets of quantities")
        for key, value in items:
            collected.setdefault(key, []).append(value)
    return {
        key: MultiRunResult(name=key, samples=tuple(values))
        for key, values in collected.items()
    }


def run_repeated(
    fn: RunFn,
    n_runs: int,
    seed: int = 1234,
    name: str = "value",
    *,
    jobs: int = 1,
    cache: "ResultCache | None" = None,
    cache_key_fn: Callable[[int], str] | None = None,
    faults: "FaultPolicy | None" = None,
    manifest: "CampaignManifest | None" = None,
    fail_fast: bool = False,
    interruptible: bool = False,
    on_failure: "Callable[[TaskFailure], None] | None" = None,
) -> dict[str, MultiRunResult]:
    """Run ``fn`` ``n_runs`` times with perturbed RNG factories.

    Returns one :class:`MultiRunResult` per named quantity.  A run
    returning a bare float is recorded under ``name``.

    With the defaults the replicas run inline and an exception in any
    replica propagates (the historical behavior).  Passing ``jobs``,
    ``cache``, ``faults`` or ``manifest`` routes the replicas through
    :func:`repro.harness.run_tasks`: ``fn`` must then be picklable for
    ``jobs > 1`` (the harness falls back to serial execution if not),
    ``cache_key_fn(run_index)`` opts replicas into
    result caching, and failed replicas are *excluded* from the
    samples rather than fatal — each is reported through
    ``on_failure``, and only if every replica fails does this raise
    :class:`~repro.errors.AnalysisError`.

    ``manifest`` journals completed replicas for checkpoint/resume,
    ``fail_fast`` aborts the batch at the first ultimate failure, and
    ``interruptible`` turns SIGINT/SIGTERM into a drain that raises
    :class:`~repro.errors.CampaignInterrupted` (see
    :func:`repro.harness.run_tasks`).
    """
    if n_runs <= 0:
        raise AnalysisError("n_runs must be positive")

    use_harness = (
        jobs > 1
        or cache is not None
        or faults is not None
        or manifest is not None
    )
    if not use_harness:
        per_run = [
            _as_items(fn(RngFactory(seed=seed, run_index=run_index)), name)
            for run_index in range(n_runs)
        ]
        return _collect(per_run)

    from repro.harness.runner import Task, run_tasks

    tasks = [
        Task(
            key=f"{name}/run{run_index}",
            fn=fn,
            args=(RngFactory(seed=seed, run_index=run_index),),
            cache_key=cache_key_fn(run_index) if cache_key_fn is not None else None,
        )
        for run_index in range(n_runs)
    ]
    outcomes = run_tasks(
        tasks,
        jobs=jobs,
        cache=cache,
        faults=faults,
        manifest=manifest,
        fail_fast=fail_fast,
        interruptible=interruptible,
    )
    if on_failure is not None:
        for outcome in outcomes:
            if not outcome.ok:
                on_failure(outcome.failure)
    per_run = [_as_items(o.value, name) for o in outcomes if o.ok]
    if not per_run:
        first = next(o.failure for o in outcomes if not o.ok)
        raise AnalysisError(f"all {n_runs} runs failed; first failure: {first}")
    return _collect(per_run)


@dataclass
class Experiment:
    """A named, repeatable measurement.

    Thin wrapper tying a run function to its repetition policy, so
    figure drivers can declare "this point is measured with n runs"
    once and reuse it.  ``jobs`` fans the replicas out through the
    harness (see :func:`run_repeated`).
    """

    name: str
    fn: RunFn
    n_runs: int = 1
    seed: int = 1234
    jobs: int = 1
    results: dict[str, MultiRunResult] = field(default_factory=dict)

    def run(self) -> dict[str, MultiRunResult]:
        self.results = run_repeated(
            self.fn, n_runs=self.n_runs, seed=self.seed, name=self.name, jobs=self.jobs
        )
        return self.results
