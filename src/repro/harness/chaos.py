"""Deterministic fault injection for resilience testing.

Test-only: nothing in the library imports this module.  It provides
picklable, module-level task functions that misbehave a *scripted*
number of times — crash the worker process, hang past a timeout, raise
— and then return their value, plus helpers that corrupt on-disk cache
entries in controlled ways.  Together they exercise every recovery
path in the engine and the harness (``KIND_BROKEN_POOL``,
``KIND_TIMEOUT``, ``KIND_ERROR``, cache quarantine, checkpoint resume)
without any nondeterminism: the n-th invocation of a named fault
behaves the same on every run and in every process.

Cross-process attempt counting uses atomic marker-file creation
(``open(..., "x")``) in a shared scratch directory, so a retried task
re-executed in a *different* worker process still sees the correct
attempt number.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import Any


class ChaosError(RuntimeError):
    """The injected, expected failure raised by :func:`error_task`."""


def take_ticket(root: str | Path, name: str) -> int:
    """Atomically claim the next attempt number (0-based) for ``name``.

    Marker files make the counter race-free across processes: the
    first creator of ``<name>.attempt0`` owns attempt 0, and so on.
    """
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    ticket = 0
    while True:
        try:
            (root / f"{name}.attempt{ticket}").touch(exist_ok=False)
            return ticket
        except FileExistsError:
            ticket += 1


def crash_task(root: str, name: str, value: Any, crash_attempts: int = 1) -> Any:
    """Die like a segfault for the first ``crash_attempts`` invocations.

    ``os._exit`` skips all Python cleanup, exactly like an OOM kill:
    the parent sees only a dead process, never an exception.
    """
    if take_ticket(root, name) < crash_attempts:
        os._exit(23)
    return value


def crash_while_attached(
    root: str, name: str, value: Any, ref=None, crash_attempts: int = 1
) -> Any:
    """Attach to a published trace, then die holding the mapping.

    The nastiest trace-plane failure mode: a worker is SIGKILL-hard
    dead (``os._exit`` skips every ``atexit``/``finally``) *while its
    mapping of a trace file is live*.  The parent must still be able to
    remove the file at campaign end — ownership never transferred —
    and a respawned worker must be able to re-attach and finish the
    task.  Touches the data before dying so the mapping is genuinely
    faulted in, not just reserved.
    """
    if ref is not None:
        from repro.harness import traceplane

        bundle = traceplane.attach(ref)
        checksum = int(sum(int(t[:16].sum()) for t in bundle.per_cpu if t.size))
    else:
        checksum = 0
    if take_ticket(root, name) < crash_attempts:
        os._exit(23)
    return (value, checksum)


def hang_task(
    root: str, name: str, value: Any, hang_s: float = 60.0, hang_attempts: int = 1
) -> Any:
    """Hang for ``hang_s`` seconds on the first ``hang_attempts`` calls."""
    if take_ticket(root, name) < hang_attempts:
        time.sleep(hang_s)
    return value


def error_task(root: str, name: str, value: Any, error_attempts: int = 1) -> Any:
    """Raise :class:`ChaosError` on the first ``error_attempts`` calls."""
    ticket = take_ticket(root, name)
    if ticket < error_attempts:
        raise ChaosError(f"injected failure {ticket + 1}/{error_attempts} for {name}")
    return value


# -- campaign-level injectors ---------------------------------------------
#
# These wrap a campaign cell function with a scripted worker failure:
# the wrapped call computes the *same value* the clean call would (or
# never returns at all), so a chaos-ridden campaign's surviving cells
# stay bit-identical to a clean run's.  A hung cell is
# :func:`hang_task`, reclaimed at the wall-clock budget.


def kill_executor(
    root: str, name: str, value: Any, kill_attempts: int = 1
) -> Any:
    """Kill the whole executor worker mid-cell, ``kill_attempts`` times.

    Campaign-flavoured :func:`crash_task`: the engine must see the
    worker die holding this cell's lease, reschedule the cell, and
    respawn the slot within the respawn budget.
    """
    if take_ticket(root, name) < kill_attempts:
        os._exit(23)
    return value


def poison_cell(root: str, name: str, value: Any) -> Any:
    """Kill the worker on *every* attempt: the cell is truly poisoned.

    Unlike :func:`kill_executor` this never relents, so after
    ``poison_k`` consecutive worker deaths the engine must
    quarantine the cell with diagnostics instead of burning the whole
    respawn budget on it.  ``value`` is never returned; it exists so
    the wrapped cell keeps the clean cell's signature.
    """
    take_ticket(root, name)  # keep the attempt count observable
    os._exit(23)
    return value  # pragma: no cover - unreachable


#: Supported cache-corruption modes.
CORRUPTION_MODES = ("truncate", "flip", "garbage", "empty")


def corrupt_cache_entry(cache, key: str, mode: str = "truncate") -> Path:
    """Damage the on-disk entry for ``key`` the way real faults do.

    ``truncate`` — a writer killed mid-write (pre-atomic tooling);
    ``flip`` — a flipped bit in the payload (checksum must catch it);
    ``garbage`` — unrelated bytes at the entry's path;
    ``empty`` — a zero-length file.
    Returns the damaged path.  Raises :class:`ValueError` for unknown
    modes and :class:`FileNotFoundError` if the entry does not exist.
    """
    if mode not in CORRUPTION_MODES:
        raise ValueError(f"unknown corruption mode {mode!r}; known: {CORRUPTION_MODES}")
    path = cache._path(key)
    data = path.read_bytes()
    if mode == "truncate":
        path.write_bytes(data[: max(1, len(data) // 2)])
    elif mode == "flip":
        flipped = bytearray(data)
        flipped[len(flipped) // 2] ^= 0xFF
        path.write_bytes(bytes(flipped))
    elif mode == "garbage":
        path.write_bytes(b"\x00garbage, not a cache entry\xff" * 4)
    else:  # empty
        path.write_bytes(b"")
    return path
