"""Nestable timed spans: where does a pipeline run spend its time?

A span is one timed region of the pipeline — trace generation, a
replay, a miss-curve sweep, a figure render — recorded with its
nesting depth and parent, so a run's structure reads directly out of
the span log::

    with SPANS.span("figure/run", module="fig12_icache"):
        with SPANS.span("workload/trace-gen", refs=500_000):
            ...
        with SPANS.span("memsys/replay", refs=500_000):
            ...

Every finished record also carries ``peak_rss_mb``, the process's
peak resident set size so far in MB, taken as the span closes, so a
run's span log shows where its peak memory rose.  It is ``getrusage``'s
``ru_maxrss``, which macOS reports in bytes and Linux in KiB
(:data:`MAXRSS_PER_MB`).  Within one process the field never
decreases.

Overhead when disabled is one attribute lookup plus returning a shared
no-op context manager: :meth:`SpanTracker.span` is a class-level no-op
method, and :meth:`SpanTracker.enable` shadows it with the live
implementation through an *instance* attribute — the same trick
:mod:`repro.memsys.invariants` uses to keep the unchecked hot path
untouched.  Nothing in the disabled path allocates or takes a clock
reading.

Finished spans are plain dicts (JSONL-ready and picklable), so worker
processes can :meth:`drain` their spans after each task and ship them
to the parent over the result pipe (see
:mod:`repro.harness.engine`); the parent's JSONL sink
(:func:`repro.obs.close_sink`) writes them at the end of the run.
"""

from __future__ import annotations

import resource
import sys
import time
from collections import defaultdict
from typing import Any


class _NullSpan:
    """Shared no-op context manager returned while tracking is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False

    def annotate(self, **attrs: Any) -> None:
        pass


_NULL_SPAN = _NullSpan()

#: ``ru_maxrss`` units per MB: bytes on macOS, KiB on Linux.
MAXRSS_PER_MB = 1 << 20 if sys.platform == "darwin" else 1 << 10


class _LiveSpan:
    """One open span; closing it appends the finished record."""

    __slots__ = ("_tracker", "_name", "_attrs", "_t0", "_depth", "_parent")

    def __init__(self, tracker: "SpanTracker", name: str, attrs: dict) -> None:
        self._tracker = tracker
        self._name = name
        self._attrs = attrs

    def __enter__(self) -> "_LiveSpan":
        stack = self._tracker._stack
        self._parent = stack[-1] if stack else None
        self._depth = len(stack)
        stack.append(self._name)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> bool:
        t1 = time.perf_counter()
        tracker = self._tracker
        tracker._stack.pop()
        record: dict[str, Any] = {
            "span": self._name,
            "t": round(self._t0 - tracker._origin, 6),
            "duration_s": round(t1 - self._t0, 6),
            "depth": self._depth,
            "peak_rss_mb": round(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / MAXRSS_PER_MB, 1
            ),
        }
        if self._parent is not None:
            record["parent"] = self._parent
        if self._attrs:
            record.update(self._attrs)
        tracker.finished.append(record)
        return False

    def annotate(self, **attrs: Any) -> None:
        """Add attributes known only once the span's work has run."""
        self._attrs.update(attrs)


class SpanTracker:
    """Collects nested timed spans; disabled (and free) by default."""

    def __init__(self) -> None:
        self.enabled = False
        self.finished: list[dict] = []
        self._stack: list[str] = []
        self._origin = time.perf_counter()

    # Class-level no-op; ``enable`` shadows it per instance.
    def span(self, name: str, **attrs: Any) -> Any:
        """Open a timed span (no-op context manager while disabled)."""
        return _NULL_SPAN

    def _span_live(self, name: str, **attrs: Any) -> _LiveSpan:
        return _LiveSpan(self, name, attrs)

    def enable(self) -> None:
        """Start recording: shadow :meth:`span` with the live version."""
        self.enabled = True
        self.span = self._span_live  # type: ignore[method-assign]

    def disable(self) -> None:
        """Stop recording and restore the class-level no-op."""
        self.enabled = False
        self.__dict__.pop("span", None)

    # -- collection --------------------------------------------------------

    def drain(self) -> list[dict]:
        """Return and clear the finished spans (open spans stay open)."""
        records, self.finished = self.finished, []
        return records

    def ingest(self, records: list[dict]) -> None:
        """Merge span records drained elsewhere (e.g. a worker process)."""
        self.finished.extend(records)

    def clear(self) -> None:
        self.finished = []
        self._stack = []
        self._origin = time.perf_counter()

    # -- reporting ---------------------------------------------------------

    def summary_rows(self) -> list[tuple[str, int, float, float, float]]:
        """``(name, count, total_s, mean_s, max_s)`` per span name."""
        grouped: dict[str, list[float]] = defaultdict(list)
        for record in self.finished:
            grouped[record["span"]].append(record["duration_s"])
        rows = []
        for name in sorted(grouped):
            durations = grouped[name]
            total = sum(durations)
            rows.append(
                (name, len(durations), round(total, 6),
                 round(total / len(durations), 6), round(max(durations), 6))
            )
        return rows

    def render_summary(self) -> str:
        """Per-span-name aggregate table."""
        from repro.core.report import render_table

        rows = self.summary_rows()
        if not rows:
            return "obs: no spans recorded"
        return render_table(
            ["span", "count", "total s", "mean s", "max s"], rows
        )
