"""The one execution engine under every batch this package runs.

:func:`repro.harness.run_tasks` (figures, sweeps, replicas) and
:func:`repro.campaign.run_campaign` (run tables) are thin clients of
:func:`schedule`.  Each turns its work into *units* — anything with
``key``, ``fn``, ``args`` and ``kwargs``, such as a
:class:`~repro.harness.runner.Task` — picks one of three executors,
and keeps only its own bookkeeping in a :class:`Client`:

- :class:`SerialExecutor` runs each unit in-process, synchronously: the
  bit-identical reference;
- :class:`LocalPoolExecutor` is a pool of owned worker processes, each
  running :func:`_worker_main` over its own duplex pipe;
- :class:`SubprocessFleetExecutor` is the same pool configured like a
  fleet of remote hosts: every worker gets a private result-cache
  shard (``JMMW_CACHE_DIR``) and a heartbeat thread.

:func:`schedule` owns every failure rule, identically for both clients.
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
from typing import Any, Sequence

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

#: Set inside a worker to suppress its heartbeats — the chaos hook behind
#: :func:`repro.harness.chaos.stall_heartbeat`.  A stalled worker keeps
#: running its unit; only the "I am alive" signal stops, which is what a
#: wedged remote host looks like from outside.
_HB_STALLED = threading.Event()


def stall_heartbeats() -> None:
    """(Chaos hook) stop this worker's heartbeats from now on."""
    _HB_STALLED.set()


def _worker_main(
    conn: connection.Connection,
    heartbeat_s: float | None,
    env: dict[str, str] | None,
) -> None:
    """Worker-process loop: recv a unit, run it, send the outcome back.

    The worker ignores SIGINT — interrupts are the parent's to
    coordinate (it drains in-flight units rather than losing them) —
    and survives any exception a unit raises, including a result that
    fails to pickle on the way back.  Only ``os._exit`` / a signal
    kills it, which the parent observes through the process sentinel.
    ``env`` (a per-worker environment) is applied before the first
    unit, under fork and spawn alike; with ``heartbeat_s`` a daemon
    thread sends ``("hb",)`` over the same pipe under a send lock.
    """
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - exotic platforms
        pass
    if env:
        os.environ.update(env)
    # A fork-started worker inherits whatever the parent had already
    # recorded (e.g. trace-plane publish counters); drop it, or the
    # first unit's drain would ship the parent's numbers back and
    # double-count them.  The parent's JSONL sink is the parent's alone.
    obs.reset()
    obs.drop_sink()
    _HB_STALLED.clear()
    lock = threading.Lock()
    stop_beating = threading.Event()

    def send(message: tuple) -> None:
        with lock:
            conn.send(message)

    def beat() -> None:
        while not stop_beating.wait(heartbeat_s):
            if _HB_STALLED.is_set():
                continue
            try:
                send(("hb",))
            except (OSError, ValueError):  # pipe gone: parent left
                return

    if heartbeat_s:
        threading.Thread(target=beat, name="jmmw-heartbeat", daemon=True).start()
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
            send(("error", repr(exc), time.perf_counter() - t0, os.getpid(),
                  obs.drain_payload()))
            continue
        wall_s = time.perf_counter() - t0
        payload = obs.drain_payload()
        try:
            send(("ok", value, wall_s, os.getpid(), payload))
        except Exception as exc:
            # Connection.send pickles before writing, so a value that
            # cannot pickle leaves the channel clean — report it as a
            # unit error instead of dying.
            send(("error", f"result not picklable: {exc!r}", wall_s,
                  os.getpid(), payload))
    stop_beating.set()
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

    def __init__(
        self, ctx, wid: int, heartbeat_s: float | None, env: dict | None
    ) -> None:
        self.wid = wid
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        self.process = ctx.Process(
            target=_worker_main, args=(child_conn, heartbeat_s, env),
            daemon=True, name=f"jmmw-worker-{wid}",
        )
        self.process.start()
        child_conn.close()
        self.conn = parent_conn
        self.unit: Any = None  # the leased unit, None while idle
        self.attempt = 0
        self.started = 0.0  # time.monotonic at dispatch
        self.last_beat = 0.0  # last message of any kind

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
    heartbeat_s = None
    capacity = 1

    def __init__(self) -> None:
        self._done: list[Done] = []

    def start(self) -> None:
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

    Liveness comes from each process's sentinel and the dispatch time.
    Dead workers are respawned on demand up to ``max_respawns``
    (default ``2 * workers``); past it, capacity shrinks and the
    scheduler degrades gracefully instead of burning workers forever.
    """

    name = "local"
    in_process = False
    heartbeat_s: float | None = None

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

    def _env(self, wid: int) -> dict[str, str] | None:
        return None

    def _spawn(self, wid: int) -> _Worker:
        return _Worker(self._ctx, wid, self.heartbeat_s, self._env(wid))

    def start(self) -> None:
        self._slots = [self._spawn(wid) for wid in range(self.workers)]

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
        """Every busy worker (``unit``, ``attempt``, ``started``, ``last_beat``)."""
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
        worker.started = worker.last_beat = time.monotonic()
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
                    message = worker.conn.recv()
                    worker.last_beat = time.monotonic()
                    if message[0] == "hb":
                        continue
                    status, payload, wall_s, pid, obs_payload = message
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
                self._slots[wid] = self._spawn(wid)
                self.respawns += 1
                revived.append(wid)
        return revived


class SubprocessFleetExecutor(LocalPoolExecutor):
    """The pool configured as N independent hosts with heartbeats.

    The stand-in for a multi-host fleet: per-worker state isolation
    (``shard_root/worker<wid>`` becomes the worker's ``JMMW_CACHE_DIR``;
    traces are generated locally, never attached from a parent plane)
    and heartbeat liveness, so a wedged worker is detected and its
    lease reclaimed even while its process stays alive.
    """

    name = "fleet"

    def __init__(
        self, workers: int = 2, *, heartbeat_s: float = 0.2,
        max_respawns: int | None = None, shard_root: str | os.PathLike | None = None,
    ) -> None:
        super().__init__(workers, max_respawns=max_respawns)
        if heartbeat_s <= 0:
            raise ConfigError("heartbeat_s must be positive")
        self.heartbeat_s = heartbeat_s
        self._own_shard_root = shard_root is None
        if shard_root is None:
            import tempfile

            shard_root = tempfile.mkdtemp(prefix="jmmw-fleet-")
        self.shard_root = os.fspath(shard_root)

    def _env(self, wid: int) -> dict[str, str]:
        shard = os.path.join(self.shard_root, f"worker{wid}")
        os.makedirs(shard, exist_ok=True)
        return {"JMMW_CACHE_DIR": shard}

    def stop(self) -> None:
        super().stop()
        if self._own_shard_root:
            import shutil

            shutil.rmtree(self.shard_root, ignore_errors=True)


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


class Client:
    """What a caller of :func:`schedule` hears about its units.

    Hooks run in the parent, in event order, and default to nothing.
    ``finished`` delivers each unit's final outcome: its winning
    :class:`Done`, or a :class:`~repro.harness.faults.TaskFailure`.
    """

    def started(self, unit: Any, attempt: int, wid: int, pid: int) -> None:
        """An attempt was dispatched to worker ``wid`` (process ``pid``)."""

    def errored(self, unit: Any, attempt: int, error: str) -> None:
        """An attempt raised inside the unit."""

    def retrying(self, unit: Any, attempt: int) -> None:
        """A failed attempt will be retried after its backoff."""

    def died(self, wid: int, exitcode: int | None, unit: Any) -> None:
        """A worker died, running ``unit`` (None if it was idle)."""

    def respawned(self, wid: int) -> None:
        """A dead worker slot was revived."""

    def reclaimed(
        self, unit: Any, attempt: int, wid: int, kind: str, reason: str
    ) -> None:
        """A lease expired (wall clock or heartbeat); its worker was killed."""

    def overran(self, unit: Any, attempt: int, wall_s: float, kept: bool) -> None:
        """An in-process attempt overran its budget; ``kept``: result stands."""

    def speculating(self, unit: Any, straggler: int, duplicate: int) -> None:
        """A straggling unit got a duplicate on worker ``duplicate``."""

    def late(self, unit: Any, done: Done) -> None:
        """A duplicate attempt answered after the unit was decided."""

    def abandoned(self, unit: Any, wid: int) -> None:
        """A duplicate still running at the end was killed unheard."""

    def finished(self, unit: Any, result: Done | TaskFailure) -> None:
        """The unit's final outcome."""


def schedule(
    units: Sequence[Any],
    executor: Any,
    client: Client,
    faults: FaultPolicy,
    *,
    interruptible: bool = False,
    fail_fast: bool = False,
    poison_k: int | None = None,
    lease_timeout_s: float | None = None,
    speculate: bool = False,
    straggler_factor: float = 4.0,
    straggler_min_s: float = 1.0,
) -> None:
    """Drive every unit to one final outcome over ``executor``.

    Never raises for a unit: failures, quarantines, aborts and
    degradation arrive at ``client.finished``.  Units are left
    undecided only by a drained interrupt (``interruptible=True``).

    - A failed attempt retries while ``faults`` allows it; its backoff
      waits in a ready-time list and never blocks the loop.
    - ``faults.timeout_s`` bounds each attempt: a pool worker past it
      is killed and its lease reclaimed; an in-process attempt is
      judged when it returns — with ``retry_timeouts`` its result is
      discarded and retried, otherwise kept and reported as overrun.
    - With heartbeats (``executor.heartbeat_s``), a lease silent past
      ``lease_timeout_s`` is a wedged worker and is reclaimed.
    - ``poison_k`` quarantines a unit that killed that many
      consecutive workers (``None``: deaths are plain retryable
      failures); an in-unit error breaks the streak.
    - ``speculate`` gives a lease running past ``straggler_factor`` x
      the median finished wall time (at least ``straggler_min_s``) a
      duplicate on an idle worker; the first result wins, a late one
      goes to ``client.late``, and duplicates still running when every
      unit is decided get ``lease_timeout_s`` to answer.
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
    speculated: set[str] = set()
    walls: list[float] = []  # wall times of finished units
    aborted = False
    timeout = faults.timeout_s
    heartbeats = executor.heartbeat_s is not None
    timed = timeout is not None or heartbeats or speculate

    def decide(unit: Any, result: Done | TaskFailure) -> None:
        nonlocal aborted
        decided.add(unit.key)
        kills.pop(unit.key, None)
        client.finished(unit, result)
        aborted = aborted or (fail_fast and isinstance(result, TaskFailure))

    def settle(kind: str, error: str) -> None:
        for unit in units:
            if unit.key not in decided:
                decide(unit, TaskFailure(unit.key, kind, error, tried.get(unit.key, 0)))

    def fail(unit: Any, attempt: int, kind: str, error: str, killed=False) -> None:
        """One failed attempt: quarantine, retry, or the final failure."""
        key = unit.key
        if key in decided or any(lease.unit.key == key for lease in executor.leases()):
            return  # the unit already won, or a duplicate is still running
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
            client.retrying(unit, attempt)
            ready = time.monotonic() + faults.delay(attempt, key=key)
            delayed.append((ready, unit, attempt + 1))
        else:
            decide(unit, TaskFailure(key, kind, error, attempt))

    def dispatch(now: float) -> None:
        idle = executor.idle()
        while idle and queue:
            unit, attempt = queue.popleft()
            if unit.key in decided:
                continue
            wid = idle.pop(0)
            client.started(unit, attempt, wid, executor.pid(wid))
            tried[unit.key] = max(tried.get(unit.key, 0), attempt)
            if not executor.dispatch(wid, unit, attempt):
                queue.appendleft((unit, attempt))  # dead worker: no attempt charged
                idle = executor.idle()
        if not (speculate and idle and not queue and walls):
            return
        import statistics  # only a speculating run needs it

        threshold = max(straggler_min_s, straggler_factor * statistics.median(walls))
        for lease in sorted(executor.leases(), key=lambda lease: lease.started):
            key = lease.unit.key
            if idle and key not in speculated and now - lease.started > threshold:
                wid = idle.pop(0)
                speculated.add(key)
                client.speculating(lease.unit, lease.wid, wid)
                executor.dispatch(wid, lease.unit, lease.attempt)

    def handle(event: Done | Dead) -> None:
        unit, attempt = event.unit, event.attempt
        if isinstance(event, Dead):
            client.died(event.wid, event.exitcode, unit)
            if unit is not None:
                fail(unit, attempt, KIND_BROKEN_POOL,
                     f"worker {event.wid} died (exit code {event.exitcode})",
                     killed=True)
            return
        obs.ingest(event.obs_payload)
        if unit.key in decided:
            client.late(unit, event)
            return
        if not event.ok:
            client.errored(unit, attempt, event.error)
            fail(unit, attempt, KIND_ERROR, event.error)
            return
        if executor.in_process and timeout is not None and event.wall_s > timeout:
            client.overran(unit, attempt, event.wall_s, kept=not faults.retry_timeouts)
            if faults.retry_timeouts:
                fail(unit, attempt, KIND_TIMEOUT,
                     f"exceeded {timeout}s budget (in-process; result discarded)")
                return
        walls.append(event.wall_s)
        decide(unit, event)

    def audit() -> None:
        """Reclaim wedged (heartbeat) and over-budget (wall-clock) leases."""
        if timeout is None and not heartbeats:
            return
        now = time.monotonic()
        for lease in executor.leases():
            if heartbeats and now - lease.last_beat > lease_timeout_s:
                kind, reason = KIND_BROKEN_POOL, (
                    f"no heartbeat for {lease_timeout_s}s (worker {lease.wid} wedged)"
                )
            elif timeout is not None and now - lease.started > timeout:
                kind = KIND_TIMEOUT
                reason = f"exceeded {timeout}s budget (worker killed)"
            else:
                continue
            executor.reclaim(lease.wid)
            client.reclaimed(lease.unit, lease.attempt, lease.wid, kind, reason)
            fail(lease.unit, lease.attempt, kind, reason, killed=True)

    def tick() -> float | None:
        """How long ``poll`` may wait for an event (None: until one comes)."""
        if not delayed:
            return (_TICK_S if timed else None) if executor.leases() else 0.0
        until = max(0.0, min(entry[0] for entry in delayed) - time.monotonic())
        return min(until, _TICK_S) if timed else until

    executor.start()
    try:
        with _InterruptDrain(interruptible) as drain:
            settled_at: float | None = None
            while True:
                now = time.monotonic()
                if len(decided) == len(units):
                    leases = executor.leases()
                    if not leases:
                        break
                    # Speculative losers still run: wait (bounded) so a
                    # divergence is observed, not discarded with the worker.
                    if settled_at is None:
                        settled_at = now
                    elif now - settled_at > lease_timeout_s:
                        for lease in leases:
                            executor.reclaim(lease.wid)
                            client.abandoned(lease.unit, lease.wid)
                        break
                stopping = aborted or drain.requested
                ready = [entry for entry in delayed if entry[0] <= now]
                if ready:  # retries whose backoff is over go first, in order
                    delayed[:] = [entry for entry in delayed if entry[0] > now]
                    ready.sort(key=lambda entry: entry[0])
                    queue.extendleft((entry[1], entry[2]) for entry in reversed(ready))
                if not stopping:
                    dispatch(now)
                for event in executor.poll(tick()):
                    handle(event)
                audit()
                for wid in executor.respawn():
                    client.respawned(wid)
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
