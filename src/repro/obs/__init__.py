"""Pipeline observability: spans, counters, benchmarks, validation.

Four layers, all opt-in and all near-zero cost when off:

- :mod:`repro.obs.spans` — nestable timed spans over the pipeline
  (trace-gen -> replay -> analysis -> figure render), exported as
  JSONL plus a human summary;
- :mod:`repro.obs.counters` — a process-wide registry the memsys /
  jvm / harness components publish aggregate counts into (bus
  transactions, snoop copybacks, c2c transfers, GC pauses, fastpath
  kernel invocations);
- :mod:`repro.obs.bench` — the ``jmmw bench`` suite: times
  representative stages over N repetitions, writes ``BENCH_*.json``
  snapshots, and fails on regression against the previous snapshot;
- :mod:`repro.obs.diffcheck` — differential validation: replays the
  same seeded traces through independent brute-force oracles
  (per-set LRU, naive MOSI machine, stack-distance recount) and
  diffs full counter vectors, reporting first-divergence context.

Enablement of the instrumentation layer: ``jmmw ... --obs [PATH]``,
or set ``JMMW_OBS=1`` in the environment (worker processes inherit
it); ``JMMW_OBS_FILE`` names a JSONL export path.  The module-level
singletons :data:`SPANS` and :data:`COUNTERS` are what instrumented
components talk to::

    from repro import obs

    with obs.span("memsys/replay", refs=n):
        ...
    obs.incr("memsys/bus/c2c_transfers", delta)

While disabled both calls bottom out in class-level no-op methods
(the instance-attribute-shadowing trick of
:mod:`repro.memsys.invariants`), so the simulator's hot paths pay one
cheap call per *coarse* event and nothing per reference.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Any

from repro.obs.counters import CounterRegistry
from repro.obs.spans import SpanTracker

#: Environment switch: any of 1/true/yes/on enables observability.
OBS_ENV = "JMMW_OBS"

#: Optional JSONL export path picked up at end of a CLI run.
OBS_FILE_ENV = "JMMW_OBS_FILE"

#: Process-wide singletons every instrumented component publishes to.
SPANS = SpanTracker()
COUNTERS = CounterRegistry()


def env_enabled() -> bool:
    """Whether ``JMMW_OBS`` asks for observability."""
    return os.environ.get(OBS_ENV, "").strip().lower() in ("1", "true", "yes", "on")


def enabled() -> bool:
    """Whether the process-wide instrumentation is currently recording."""
    return COUNTERS.enabled


def enable() -> None:
    """Turn on the process-wide span tracker and counter registry."""
    SPANS.enable()
    COUNTERS.enable()


def disable() -> None:
    """Turn instrumentation off and restore the no-op fast path."""
    SPANS.disable()
    COUNTERS.disable()


def reset() -> None:
    """Drop all recorded observations (enablement is unchanged)."""
    SPANS.clear()
    COUNTERS.clear()


def span(name: str, **attrs: Any):
    """Open a timed span; a shared no-op while observability is off."""
    return SPANS.span(name, **attrs)


def incr(name: str, n: int | float = 1) -> None:
    """Bump a registry counter; a no-op while observability is off."""
    COUNTERS.incr(name, n)


# -- worker <-> parent transport (see repro.harness.engine) ----------------


def drain_payload() -> tuple[dict, list[dict]] | None:
    """Pull everything recorded since the last drain, for the pipe.

    Returns ``(counters, spans)`` — both plain picklable containers —
    or ``None`` when there is nothing to ship (including the common
    case of observability being disabled), so the disabled path adds
    nothing to the result message.
    """
    if not COUNTERS.enabled and not SPANS.enabled:
        return None
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
    """Human summary: span aggregates plus the counter table."""
    return "\n".join(
        ["-- spans --", SPANS.render_summary(),
         "-- counters --", COUNTERS.render_summary()]
    )


def export_jsonl(path: str | Path) -> int:
    """Write spans then counters to ``path`` (JSONL); returns records."""
    return SPANS.write_jsonl(path) + COUNTERS.write_jsonl(path)


def _init_from_env() -> None:
    if env_enabled():
        enable()


_init_from_env()
