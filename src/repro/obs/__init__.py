"""Pipeline observability: one recorder for events, counters and spans.

- :mod:`repro.obs.counters` — a process-wide registry every component
  publishes aggregate counts into (harness and campaign events, bus
  transactions, c2c transfers, GC pauses, fastpath kernel calls);
  always on;
- :mod:`repro.obs.spans` — nestable timed spans over the pipeline
  (trace-gen -> replay -> analysis -> figure render); opt-in;
- :mod:`repro.obs.bench` — the ``jmmw bench`` ratio gates: each fast
  path timed against its reference in alternating rounds of one
  process, with equal results required and the median speedup held
  to a bound;
- :mod:`repro.obs.diffcheck` — differential validation: replays the
  same seeded traces through independent brute-force oracles
  (per-set LRU, naive MOSI machine, stack-distance recount) and
  diffs full counter vectors, reporting first-divergence context.

Instrumented components talk to the singletons :data:`SPANS` and
:data:`COUNTERS` through this module::

    from repro import obs

    with obs.span("memsys/replay", refs=n):
        ...
    obs.incr("memsys/bus/c2c_transfers", delta)
    obs.emit("task/end", task="fig04", wall_s=1.5)

:func:`emit` bumps the counter named after the event and, while a
sink is open (``jmmw ... --obs PATH``), writes the event as one JSONL
line at once; :func:`close_sink` appends the spans and final counters.
Only the parent writes the file: workers ship their counters and spans
back with each result (see :mod:`repro.harness.engine`).

Counters stay on because every site is a coarse event (a replay, a
task, a GC collection), never a reference, and the registry holds one
entry per name; finished spans pile up for the whole run, so they wait
for :func:`enable` (``--obs``).  Counts are process-wide: to isolate
one run, :func:`reset` first or diff ``COUNTERS.snapshot()``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import IO, Any

from repro.obs.counters import CounterRegistry
from repro.obs.spans import SpanTracker

#: Process-wide singletons every instrumented component publishes to.
SPANS = SpanTracker()
COUNTERS = CounterRegistry()

#: The open JSONL sink (``--obs PATH``) and the time its events count from.
_sink: IO[str] | None = None
_sink_t0 = 0.0


def enabled() -> bool:
    """Whether spans are being recorded (counters always are)."""
    return SPANS.enabled


def enable() -> None:
    """Start recording spans."""
    SPANS.enable()


def disable() -> None:
    """Stop recording spans and restore their no-op fast path."""
    SPANS.disable()


def reset() -> None:
    """Drop all recorded counters and spans (the sink is unchanged)."""
    SPANS.clear()
    COUNTERS.clear()


def span(name: str, **attrs: Any):
    """Open a timed span; a shared no-op while spans are off."""
    return SPANS.span(name, **attrs)


def incr(name: str, n: int | float = 1) -> None:
    """Add ``n`` to registry counter ``name``; writes no record."""
    COUNTERS.incr(name, n)


def emit(event: str, **fields: Any) -> None:
    """Record one event: bump its counter and stream it to the sink.

    Fields that are not JSON-serializable are written as strings.
    """
    COUNTERS.incr(event)
    if _sink is not None:
        record = {"type": "event", "t": round(time.monotonic() - _sink_t0, 6),
                  "event": event}
        record.update(fields)
        _sink.write(json.dumps(record, default=str) + "\n")
        # Flushed per event: a fork-started worker inherits an empty
        # buffer, and an interrupted run keeps every event so far.
        _sink.flush()


# -- the JSONL sink ---------------------------------------------------------


def open_sink(path: str | Path) -> None:
    """Start a fresh JSONL file (truncating any earlier one) for events."""
    global _sink, _sink_t0
    close_sink()
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    _sink = path.open("w", encoding="utf-8")
    _sink_t0 = time.monotonic()


def close_sink() -> int:
    """Append finished spans and final counters, then close the file.

    Returns the number of records written here (0 without a sink).
    """
    global _sink
    if _sink is None:
        return 0
    sink, _sink = _sink, None
    counters = COUNTERS.summary_rows()
    with sink:
        for record in SPANS.finished:
            sink.write(json.dumps({"type": "span", **record}, default=str) + "\n")
        for name, value in counters:
            sink.write(
                json.dumps({"type": "counter", "name": name, "value": value}) + "\n"
            )
    return len(SPANS.finished) + len(counters)


def drop_sink() -> None:
    """Forget an inherited sink unwritten (a fork-started worker's copy)."""
    global _sink
    _sink = None


# -- worker <-> parent transport (see repro.harness.engine) ----------------


def drain_payload() -> tuple[dict, list[dict]] | None:
    """Pull everything recorded since the last drain, for the pipe.

    Returns ``(counters, spans)`` — both plain picklable containers —
    or ``None`` when there is nothing to ship.
    """
    counters = COUNTERS.drain()
    spans = SPANS.drain()
    if not counters and not spans:
        return None
    return counters, spans


def ingest(payload: tuple[dict, list[dict]] | None) -> None:
    """Merge a drained payload into this process's singletons."""
    if not payload:
        return
    counters, spans = payload
    COUNTERS.merge(counters)
    SPANS.ingest(spans)


# -- end-of-run reporting ---------------------------------------------------


def render_summary() -> str:
    """Human summary: the counter table, after the span table if spans are on."""
    parts = ["-- spans --", SPANS.render_summary()] if SPANS.enabled else []
    return "\n".join(parts + ["-- counters --", COUNTERS.render_summary()])
