"""Process-wide counter registry the simulator components publish into.

The memory system, JVM model and harness all keep their own precise
per-run statistics; what was missing is one place where a whole
campaign's totals accumulate — bus transactions, snoop copybacks,
cache-to-cache transfers, GC pauses, vectorized-kernel invocations —
regardless of which component, figure or worker produced them.
:class:`CounterRegistry` is that place.

Names are hierarchical (``memsys/bus/reads``, ``jvm/gc/pause_s``) so
summaries group naturally; values may be ints or floats (pause
seconds, bytes).  Like :mod:`repro.obs.spans`, the registry costs one
no-op method call while disabled: :meth:`CounterRegistry.incr` is a
class-level no-op that :meth:`enable` shadows with the live
implementation through an instance attribute.

Worker processes :meth:`drain` their counts after each task; the
parent merges them back with :meth:`merge` (see
:mod:`repro.harness.engine`), so parallel campaigns report the same
totals as serial ones.
"""

from __future__ import annotations

import json
from pathlib import Path


class CounterRegistry:
    """Hierarchical named counters; disabled (and free) by default."""

    def __init__(self) -> None:
        self.enabled = False
        self._counts: dict[str, int | float] = {}

    # Class-level no-op; ``enable`` shadows it per instance.
    def incr(self, name: str, n: int | float = 1) -> None:
        """Add ``n`` to counter ``name`` (no-op while disabled)."""

    def _incr_live(self, name: str, n: int | float = 1) -> None:
        counts = self._counts
        counts[name] = counts.get(name, 0) + n

    def enable(self) -> None:
        """Start counting: shadow :meth:`incr` with the live version."""
        self.enabled = True
        self.incr = self._incr_live  # type: ignore[method-assign]

    def disable(self) -> None:
        """Stop counting and restore the class-level no-op."""
        self.enabled = False
        self.__dict__.pop("incr", None)

    # -- collection --------------------------------------------------------

    def snapshot(self) -> dict[str, int | float]:
        """Copy of the current counts."""
        return dict(self._counts)

    def drain(self) -> dict[str, int | float]:
        """Return and clear the current counts."""
        counts, self._counts = self._counts, {}
        return counts

    def merge(self, counts: dict[str, int | float]) -> None:
        """Add counts drained elsewhere (e.g. a worker process)."""
        own = self._counts
        for name, value in counts.items():
            own[name] = own.get(name, 0) + value

    def clear(self) -> None:
        self._counts = {}

    def get(self, name: str) -> int | float:
        return self._counts.get(name, 0)

    # -- reporting ---------------------------------------------------------

    def summary_rows(self) -> list[tuple[str, int | float]]:
        return sorted(self._counts.items())

    def render_summary(self) -> str:
        """Counter table sorted by hierarchical name."""
        from repro.core.report import render_table

        rows = self.summary_rows()
        if not rows:
            return "obs: no counters recorded"
        return render_table(["counter", "value"], rows)

    def write_jsonl(self, path: str | Path) -> int:
        """Append one record per counter to a JSONL file."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = self.summary_rows()
        with path.open("a", encoding="utf-8") as fh:
            for name, value in rows:
                fh.write(
                    json.dumps({"type": "counter", "name": name, "value": value})
                    + "\n"
                )
        return len(rows)
