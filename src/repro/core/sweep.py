"""Parameter-sweep helper.

Design studies ask "how does metric M move as knob K varies?"; this
helper runs the measurement at each knob value and returns a labeled
curve with convenience accessors, so benches and examples don't
hand-roll the same loop and table.

Sweep points are independent measurements, so they parallelize: pass
``jobs > 1`` and the points are evaluated through
:mod:`repro.harness` (the measure function must be picklable; the
harness falls back to serial if not).  Point order — and therefore the
result — is identical either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

from repro.core.report import render_table
from repro.errors import AnalysisError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.harness.faults import FaultPolicy


@dataclass(frozen=True)
class SweepResult:
    """One swept metric: (knob value, metric value) pairs."""

    knob: str
    metric: str
    points: tuple[tuple[object, float], ...]

    def __post_init__(self) -> None:
        if not self.points:
            raise AnalysisError(f"sweep over {self.knob} produced no points")
        # O(1) lookups for at(); first occurrence wins on duplicate knob
        # values, matching the old linear scan.  Unhashable knob values
        # (rare) simply stay out of the index and fall back to the scan.
        index: dict[object, float] = {}
        for knob_value, metric_value in self.points:
            try:
                index.setdefault(knob_value, metric_value)
            except TypeError:
                continue
        object.__setattr__(self, "_index", index)

    def values(self) -> list[float]:
        return [v for _, v in self.points]

    def at(self, knob_value: object) -> float:
        """Metric at ``knob_value`` (indexed; O(1) for hashable knobs)."""
        try:
            value = self._index.get(knob_value)  # type: ignore[attr-defined]
        except TypeError:
            value = None
        if value is None:
            for k, v in self.points:
                if k == knob_value:
                    return v
            raise AnalysisError(f"no sweep point at {self.knob}={knob_value!r}")
        return value

    def argbest(self, maximize: bool = False) -> object:
        """Knob value with the smallest (or largest) metric.

        Ties are broken deterministically toward the *earliest* swept
        value: if several points share the best metric, the first one
        in sweep order wins.
        """
        chooser = max if maximize else min
        return chooser(self.points, key=lambda kv: kv[1])[0]

    def is_monotonic(self, increasing: bool, tolerance: float = 0.0) -> bool:
        values = self.values()
        if increasing:
            return all(b >= a - tolerance for a, b in zip(values, values[1:]))
        return all(b <= a + tolerance for a, b in zip(values, values[1:]))

    def render(self) -> str:
        return render_table([self.knob, self.metric], list(self.points))


def sweep(
    knob: str,
    values: Sequence[object],
    measure: Callable[[object], float],
    metric: str = "value",
    *,
    jobs: int = 1,
    faults: "FaultPolicy | None" = None,
) -> SweepResult:
    """Measure ``measure(v)`` at each knob value.

    With ``jobs > 1`` the points are evaluated in parallel through the
    harness; ``faults`` sets the retry/timeout policy for each point.
    Unlike replicas, a sweep has no redundancy — every point is
    load-bearing — so a point that fails (after any retries the fault
    policy allows) raises :class:`AnalysisError`.

    >>> sweep("n", [1, 2, 3], lambda n: float(n * n)).values()
    [1.0, 4.0, 9.0]
    """
    if not values:
        raise AnalysisError("sweep needs at least one knob value")
    if jobs <= 1 and faults is None:
        points = tuple((v, float(measure(v))) for v in values)
        return SweepResult(knob=knob, metric=metric, points=points)

    from repro.harness.runner import Task, run_tasks

    tasks = [
        Task(key=f"{knob}[{i}]={v!r}", fn=measure, args=(v,))
        for i, v in enumerate(values)
    ]
    outcomes = run_tasks(tasks, jobs=jobs, faults=faults)
    failed = [o.failure for o in outcomes if not o.ok]
    if failed:
        raise AnalysisError(f"sweep over {knob} failed: {failed[0]}")
    points = tuple((v, float(o.value)) for v, o in zip(values, outcomes))
    return SweepResult(knob=knob, metric=metric, points=points)
