"""Process-wide counter registry every component publishes into.

The memory system, JVM model and harness all keep their own precise
per-run statistics; what was missing is one place where a whole
campaign's totals accumulate — harness and campaign events, bus
transactions, snoop copybacks, cache-to-cache transfers, GC pauses,
vectorized-kernel invocations — regardless of which component, figure
or worker produced them.  :class:`CounterRegistry` is that place.

Names are hierarchical (``memsys/bus/reads``, ``jvm/gc/pause_s``) so
summaries group naturally; values may be ints or floats (pause
seconds, bytes).  The registry is always on: every publishing site is
a coarse event, never a per-reference one, and it holds one entry per
name.

Worker processes :meth:`drain` their counts after each task; the
parent merges them back with :meth:`merge` (see
:mod:`repro.harness.engine`), so parallel campaigns report the same
totals as serial ones.
"""

from __future__ import annotations


class CounterRegistry:
    """Hierarchical named counters."""

    def __init__(self) -> None:
        self._counts: dict[str, int | float] = {}

    def incr(self, name: str, n: int | float = 1) -> None:
        """Add ``n`` to counter ``name``."""
        counts = self._counts
        counts[name] = counts.get(name, 0) + n

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
