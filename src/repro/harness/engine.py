"""The one execution engine under every batch this package runs.

:func:`schedule` has one caller, :func:`repro.harness.run_tasks`, and
every batch goes through it: figures, sweeps, replicas and the cells
of a campaign run table (:func:`repro.campaign.run_campaign`).  A
batch is a list of *units* — anything with ``key``, ``fn``, ``args``
and ``kwargs``, such as a :class:`~repro.harness.runner.Task` — run on
one of two executors:

- :class:`SerialExecutor` runs each unit in-process, synchronously: the
  bit-identical reference;
- :class:`LocalPoolExecutor` is a pool of owned worker processes, each
  running :func:`_worker_main` over its own duplex pipe.

:func:`schedule` owns every failure rule and records every step as a
``task/*``, ``run/broken-pool`` or ``pool/respawn`` event.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing import connection
from typing import Any, Callable, Sequence

from repro import obs
from repro.errors import ConfigError
from repro.harness.faults import (
    KIND_ABORTED,
    KIND_BROKEN_POOL,
    KIND_ERROR,
    KIND_MISSING,
    KIND_POISONED,
    KIND_TIMEOUT,
    FaultPolicy,
    TaskFailure,
)

#: Wake-up period of the scheduling loop while anything is time-based.
_TICK_S = 0.05


def _mp_context() -> multiprocessing.context.BaseContext:
    """Start method for worker processes.

    ``fork`` where it is safe (Linux) because it avoids re-importing
    numpy in every worker; ``spawn`` elsewhere.
    """
    linux = sys.platform.startswith("linux")
    fork = linux and "fork" in multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if fork else "spawn")


# -- worker processes -------------------------------------------------------


def _worker_main(conn: connection.Connection) -> None:
    """Worker-process loop: recv a unit, run it, send the outcome back.

    The worker ignores SIGINT — interrupts are the parent's to
    coordinate (it drains in-flight units rather than losing them) —
    and survives any exception a unit raises, including a result that
    fails to pickle on the way back.  Only ``os._exit`` / a signal
    kills it, which the parent observes through the process sentinel.
    """
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - exotic platforms
        pass
    # A fork-started worker inherits whatever the parent had already
    # recorded (e.g. trace-plane publish counters); drop it, or the
    # first unit's drain would ship the parent's numbers back and
    # double-count them.  The parent's JSONL sink is the parent's alone.
    obs.reset()
    obs.drop_sink()
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if message is None:  # clean shutdown
            break
        fn, args, kwargs, obs_on = message
        # Span recording follows the parent per message, so a worker
        # respawned mid-run records exactly like the one it replaced.
        if obs_on != obs.enabled():
            obs.enable() if obs_on else obs.disable()
        t0 = time.perf_counter()
        try:
            value = fn(*args, **kwargs)
        except BaseException as exc:
            conn.send(("error", repr(exc), time.perf_counter() - t0, os.getpid(),
                       obs.drain_payload()))
            continue
        wall_s = time.perf_counter() - t0
        payload = obs.drain_payload()
        try:
            conn.send(("ok", value, wall_s, os.getpid(), payload))
        except Exception as exc:
            # Connection.send pickles before writing, so a value that
            # cannot pickle leaves the channel clean — report it as a
            # unit error instead of dying.
            conn.send(("error", f"result not picklable: {exc!r}", wall_s,
                       os.getpid(), payload))
    try:
        conn.close()
    except OSError:  # pragma: no cover
        pass


@dataclass
class Done:
    """One attempt of a unit finished: a value, or an in-unit error."""

    wid: int
    unit: Any
    attempt: int
    ok: bool
    value: Any
    error: str
    wall_s: float
    pid: int
    obs_payload: Any


@dataclass
class Dead:
    """A worker died; ``unit`` is what it was running (None if idle)."""

    wid: int
    exitcode: int | None
    unit: Any
    attempt: int


class _Worker:
    """One owned worker process, its duplex pipe and its current lease."""

    def __init__(self, ctx, wid: int) -> None:
        self.wid = wid
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        self.process = ctx.Process(
            target=_worker_main, args=(child_conn,),
            daemon=True, name=f"jmmw-worker-{wid}",
        )
        self.process.start()
        child_conn.close()
        self.conn = parent_conn
        self.unit: Any = None  # the leased unit, None while idle
        self.attempt = 0
        self.started = 0.0  # time.monotonic at dispatch

    def shutdown(self) -> None:
        """Best-effort clean stop at end of run."""
        try:
            self.conn.send(None)
        except OSError:
            pass
        self.process.join(timeout=5.0)
        if self.process.is_alive():  # pragma: no cover - stuck worker
            self.process.kill()
            self.process.join()
        try:
            self.conn.close()
        except OSError:  # pragma: no cover
            pass


# -- executors --------------------------------------------------------------


class SerialExecutor:
    """In-process synchronous execution: the bit-identical reference.

    ``dispatch`` runs the unit at once and queues its result for the
    next ``poll``.  The unit reports its observations the way a worker
    does: the caller's recorded observations are set aside, the unit
    runs, what it recorded is drained into its result, and the
    caller's are put back — so every executor feeds one ingest path.
    There are no leases and no way to die, and a wall-clock overrun
    cannot be preempted: :func:`schedule` judges it after the fact.
    Chaos injectors that kill their worker must not run here (they
    would kill the calling process itself).
    """

    name = "serial"
    in_process = True
    capacity = 1

    def __init__(self) -> None:
        self._done: list[Done] = []

    def start(self, units: int) -> None:
        pass

    def stop(self) -> None:
        self._done = []

    def describe(self) -> str:
        return self.name

    def idle(self) -> list[int]:
        return [0]

    def leases(self) -> list[_Worker]:
        return []

    def pid(self, wid: int) -> int:
        return os.getpid()

    def dispatch(self, wid: int, unit: Any, attempt: int) -> bool:
        saved = obs.drain_payload()
        try:
            t0 = time.perf_counter()
            try:
                value, ok, error = unit.fn(*unit.args, **unit.kwargs), True, ""
            except Exception as exc:
                value, ok, error = None, False, repr(exc)
            wall_s = time.perf_counter() - t0
            payload = obs.drain_payload()
        finally:
            obs.ingest(saved)
        self._done.append(
            Done(wid, unit, attempt, ok, value, error, wall_s, os.getpid(), payload)
        )
        return True

    def poll(self, timeout: float | None) -> list[Done]:
        done, self._done = self._done, []
        if not done and timeout:
            time.sleep(timeout)  # only a backoff is left to wait out
        return done

    def respawn(self) -> list[int]:
        return []


class LocalPoolExecutor:
    """A pool of owned worker processes — what ``--jobs N`` runs on.

    ``start`` forks no more workers than the batch has units;
    ``describe`` names the configured count either way.  Liveness
    comes from each process's sentinel and the dispatch time.  Dead
    workers are respawned on demand up to ``max_respawns``
    (default ``2 * workers``); past it, capacity shrinks and the
    scheduler degrades gracefully instead of burning workers forever.
    """

    name = "local"
    in_process = False

    def __init__(self, workers: int = 2, *, max_respawns: int | None = None) -> None:
        if workers < 1:
            raise ConfigError("executor needs at least one worker")
        if max_respawns is not None and max_respawns < 0:
            raise ConfigError("max_respawns must be non-negative (or None)")
        self.workers = workers
        #: Dead workers revived before capacity starts shrinking.
        self.max_respawns = 2 * workers if max_respawns is None else max_respawns
        self.respawns = 0
        self._slots: list[_Worker | None] = []
        self._dead: list[Dead] = []  # found at dispatch, reported by poll
        self._ctx = _mp_context()

    def start(self, units: int) -> None:
        workers = min(self.workers, units)
        self._slots = [_Worker(self._ctx, wid) for wid in range(workers)]

    def stop(self) -> None:
        for worker in self._slots:
            if worker is not None:
                worker.shutdown()
        self._slots = []

    def describe(self) -> str:
        return f"{self.name} ({self.workers} workers)"

    @property
    def capacity(self) -> int:
        """Live workers, busy or idle."""
        return sum(1 for worker in self._slots if worker is not None)

    def idle(self) -> list[int]:
        return [
            worker.wid for worker in self._slots
            if worker is not None and worker.unit is None
        ]

    def leases(self) -> list[_Worker]:
        """Every busy worker (``unit``, ``attempt``, ``started``)."""
        return [
            worker for worker in self._slots
            if worker is not None and worker.unit is not None
        ]

    def pid(self, wid: int) -> int:
        return self._slots[wid].process.pid

    def dispatch(self, wid: int, unit: Any, attempt: int) -> bool:
        """Ship one attempt; False (no attempt charged) if the worker is dead."""
        worker = self._slots[wid]
        try:
            worker.conn.send((unit.fn, unit.args, dict(unit.kwargs), obs.enabled()))
        except OSError:
            self._dead.append(self._retire(worker))
            return False
        worker.unit, worker.attempt = unit, attempt
        worker.started = time.monotonic()
        return True

    def _retire(self, worker: _Worker) -> Dead:
        """Reap a dead worker, *then* read its exit code; free the slot."""
        try:
            worker.conn.close()
        except OSError:  # pragma: no cover
            pass
        worker.process.join()
        self._slots[worker.wid] = None
        return Dead(worker.wid, worker.process.exitcode, worker.unit, worker.attempt)

    def poll(self, timeout: float | None) -> list[Done | Dead]:
        """Results and deaths, waiting up to ``timeout`` for the first."""
        events: list[Done | Dead] = self._dead
        self._dead = []
        live = [worker for worker in self._slots if worker is not None]
        if not live:
            return events
        waitables: list[Any] = [worker.conn for worker in live]
        waitables += [worker.process.sentinel for worker in live]
        ready = set(connection.wait(waitables, timeout=0 if events else timeout))
        for worker in live:
            exited = worker.process.sentinel in ready
            if not exited and worker.conn not in ready:
                continue
            try:
                # Drain everything, including a result a dying worker
                # managed to send before it went.
                while worker.conn.poll():
                    status, payload, wall_s, pid, obs_payload = worker.conn.recv()
                    ok = status == "ok"
                    events.append(
                        Done(worker.wid, worker.unit, worker.attempt, ok,
                             payload if ok else None, "" if ok else payload,
                             wall_s, pid, obs_payload)
                    )
                    worker.unit = None
            except (EOFError, OSError):
                exited = True
            if exited:
                events.append(self._retire(worker))
        return events

    def reclaim(self, wid: int) -> None:
        """Kill a busy worker whose lease expired; it is never heard from again."""
        worker = self._slots[wid]
        worker.process.kill()
        self._retire(worker)

    def respawn(self) -> list[int]:
        """Revive dead slots within the budget; returns their ids."""
        revived = []
        for wid, worker in enumerate(self._slots):
            if worker is None and self.respawns < self.max_respawns:
                self._slots[wid] = _Worker(self._ctx, wid)
                self.respawns += 1
                revived.append(wid)
        return revived


# -- the scheduling loop ----------------------------------------------------


class _InterruptDrain:
    """Turns SIGINT/SIGTERM into a drain request while a run is active.

    First signal: set :attr:`requested`; the scheduler stops
    dispatching, finishes in-flight units and returns with the rest
    undecided.  Second signal: give up on draining and raise
    :class:`KeyboardInterrupt` immediately.  Installs only when
    ``active`` and only from the main thread (signal API restriction);
    otherwise the run simply is not interruptible.
    """

    def __init__(self, active: bool) -> None:
        self.active = active
        self.requested = False
        self._previous: dict[int, Any] = {}

    def _handle(self, signum: int, frame: object) -> None:
        if self.requested:
            raise KeyboardInterrupt
        self.requested = True

    def __enter__(self) -> "_InterruptDrain":
        if self.active and threading.current_thread() is threading.main_thread():
            for sig in (signal.SIGINT, signal.SIGTERM):
                self._previous[sig] = signal.signal(sig, self._handle)
        return self

    def __exit__(self, *exc_info: object) -> None:
        for sig, previous in self._previous.items():
            signal.signal(sig, previous)
        self._previous.clear()


def schedule(
    units: Sequence[Any],
    executor: Any,
    finished: Callable[[Any, Done | TaskFailure], None],
    faults: FaultPolicy,
    *,
    interruptible: bool = False,
    fail_fast: bool = False,
    poison_k: int | None = None,
) -> None:
    """Drive every unit to one final outcome over ``executor``.

    Never raises for a unit: ``finished(unit, result)`` receives each
    unit's final outcome, its successful :class:`Done` or a
    :class:`~repro.harness.faults.TaskFailure` (failures, quarantines,
    aborts, degradation).  Units are left undecided only by a drained
    interrupt (``interruptible=True``).

    Every step is an :func:`repro.obs.emit` event naming the unit's
    key: ``task/start``, ``task/error`` (the unit raised),
    ``task/retry``, ``task/timeout`` (killed at its budget, or an
    in-process overrun discarded), ``task/overtime`` (an in-process
    overrun kept) and ``task/end`` (success); ``run/broken-pool`` for a
    dead worker and ``pool/respawn`` for a revived one.

    - A failed attempt retries while ``faults`` allows it; its backoff
      waits in a ready-time list and never blocks the loop.
    - ``faults.timeout_s`` bounds each attempt: a pool worker past it
      is killed and its lease reclaimed; an in-process attempt is
      judged when it returns — with ``retry_timeouts`` its result is
      discarded and retried, otherwise kept and reported as overrun.
      It is the one rule for a hung or wedged worker.
    - ``poison_k`` quarantines a unit that killed that many
      consecutive workers (``None``: deaths are plain retryable
      failures); an in-unit error breaks the streak.
    - When the executor's respawn budget is spent and no worker is
      left, the remaining units end ``missing``.
    - ``fail_fast`` stops dispatching after the first failed unit; the
      ones not yet decided end ``aborted``.
    """
    queue: deque = deque((unit, 1) for unit in units)
    delayed: list[tuple[float, Any, int]] = []  # (ready_t, unit, attempt)
    decided: set[str] = set()
    kills: dict[str, int] = {}  # consecutive worker kills per unit
    tried: dict[str, int] = {}  # highest attempt dispatched per unit
    aborted = False
    timeout = faults.timeout_s
    timed = timeout is not None

    def decide(unit: Any, result: Done | TaskFailure) -> None:
        nonlocal aborted
        decided.add(unit.key)
        kills.pop(unit.key, None)
        if isinstance(result, Done):
            obs.emit(
                "task/end", task=unit.key, attempt=result.attempt,
                wall_s=round(result.wall_s, 6), worker=result.pid,
            )
        finished(unit, result)
        aborted = aborted or (fail_fast and isinstance(result, TaskFailure))

    def settle(kind: str, error: str) -> None:
        for unit in units:
            if unit.key not in decided:
                decide(unit, TaskFailure(unit.key, kind, error, tried.get(unit.key, 0)))

    def fail(unit: Any, attempt: int, kind: str, error: str, killed=False) -> None:
        """One failed attempt: quarantine, retry, or the final failure."""
        key = unit.key
        retryable = faults.retryable(kind)
        if not killed:
            kills.pop(key, None)  # the worker survived: streak broken
        elif retryable:
            kills[key] = kills.get(key, 0) + 1
            if poison_k is not None and kills[key] >= poison_k:
                decide(unit, TaskFailure(
                    key, KIND_POISONED,
                    f"quarantined: killed {kills[key]} consecutive worker(s); "
                    f"last: {error}", attempt,
                ))
                return
        if retryable and faults.should_retry(attempt):
            obs.emit("task/retry", task=key, attempt=attempt)
            ready = time.monotonic() + faults.delay(attempt, key=key)
            delayed.append((ready, unit, attempt + 1))
        else:
            decide(unit, TaskFailure(key, kind, error, attempt))

    def dispatch() -> None:
        idle = executor.idle()
        while idle and queue:
            unit, attempt = queue.popleft()
            wid = idle.pop(0)
            obs.emit(
                "task/start", task=unit.key, attempt=attempt,
                worker=executor.pid(wid),
            )
            tried[unit.key] = max(tried.get(unit.key, 0), attempt)
            if not executor.dispatch(wid, unit, attempt):
                queue.appendleft((unit, attempt))  # dead worker: no attempt charged
                idle = executor.idle()

    def handle(event: Done | Dead) -> None:
        unit, attempt = event.unit, event.attempt
        if isinstance(event, Dead):
            obs.emit(
                "run/broken-pool", task=unit.key if unit is not None else None,
                exitcode=event.exitcode,
            )
            if unit is not None:
                fail(unit, attempt, KIND_BROKEN_POOL,
                     f"worker {event.wid} died (exit code {event.exitcode})",
                     killed=True)
            return
        obs.ingest(event.obs_payload)
        if not event.ok:
            obs.emit("task/error", task=unit.key, attempt=attempt, error=event.error)
            fail(unit, attempt, KIND_ERROR, event.error)
            return
        if executor.in_process and timeout is not None and event.wall_s > timeout:
            if faults.retry_timeouts:  # discarded, like a worker killed at its budget
                obs.emit(
                    "task/timeout", task=unit.key, attempt=attempt, timeout_s=timeout
                )
                fail(unit, attempt, KIND_TIMEOUT,
                     f"exceeded {timeout}s budget (in-process; result discarded)")
                return
            obs.emit(
                "task/overtime", task=unit.key, wall_s=round(event.wall_s, 6),
                timeout_s=timeout,
            )
        decide(unit, event)

    def audit() -> None:
        """Reclaim every lease past its wall-clock budget."""
        if not timed:
            return
        now = time.monotonic()
        reason = f"exceeded {timeout}s budget (worker killed)"
        for lease in executor.leases():
            if now - lease.started > timeout:
                executor.reclaim(lease.wid)
                obs.emit(
                    "task/timeout", task=lease.unit.key, attempt=lease.attempt,
                    timeout_s=timeout,
                )
                fail(lease.unit, lease.attempt, KIND_TIMEOUT, reason, killed=True)

    def tick() -> float | None:
        """How long ``poll`` may wait for an event (None: until one comes)."""
        if not delayed:
            return (_TICK_S if timed else None) if executor.leases() else 0.0
        until = max(0.0, min(entry[0] for entry in delayed) - time.monotonic())
        return min(until, _TICK_S) if timed else until

    executor.start(len(units))
    try:
        with _InterruptDrain(interruptible) as drain:
            while len(decided) < len(units):
                now = time.monotonic()
                stopping = aborted or drain.requested
                ready = [entry for entry in delayed if entry[0] <= now]
                if ready:  # retries whose backoff is over go first, in order
                    delayed[:] = [entry for entry in delayed if entry[0] > now]
                    ready.sort(key=lambda entry: entry[0])
                    queue.extendleft((entry[1], entry[2]) for entry in reversed(ready))
                if not stopping:
                    dispatch()
                for event in executor.poll(tick()):
                    handle(event)
                audit()
                for wid in executor.respawn():
                    obs.emit("pool/respawn", worker=wid)
                if executor.capacity == 0:
                    settle(KIND_MISSING, "not run: no surviving workers "
                           "(executor respawn budget exhausted)")
                    break
                if stopping and not executor.leases():
                    break
    finally:
        executor.stop()
    if aborted:
        settle(KIND_ABORTED, "not run: batch aborted after an earlier failure")
