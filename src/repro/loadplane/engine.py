"""Closed- and open-loop request generation over the appserver model.

The engine is an exact discrete-event simulation of the queueing
network the paper's driver tier implies: users alternate between an
exponential *think* state (closed loop) or arrive as a Poisson stream
(open loop), then move through the application-server stations —

    think/arrive -> [ThreadPool] -> CPU phase -> [ConnectionPool]
                 -> DB phase -> complete -> think again

where the :class:`~repro.appserver.threadpool.ThreadPool` caps
concurrent transactions and the
:class:`~repro.appserver.connpool.ConnectionPool` caps the DB
sub-phase (waiters keep holding their thread — the coupled-resource
behavior Section 4.1 blames for the idle time).

Exactness without per-event heaps comes from the Markov structure:
with exponential think and service stages, the time to the next event
is exponential in the *total* rate and the firing user is uniform
within its station (memorylessness), so the engine is a Gillespie
simulation over aggregate rates with O(1) work per event — event cost
is independent of the population.  Per-user identity lives in the
batched :class:`~repro.loadplane.state.UserColumns`; a million users
cost ~30 MB of columns and not a single Python object.

Set-up is batched too.  The warm start places its population a slice
at a time (:meth:`_Engine._place_users`): one ``searchsorted`` per
8,192-draw block of uniforms for the transaction types, one bulk
thread acquire and range writes for the thread queue and the idle
pool, leaving the state that a per-user ``_arrive`` loop would.
Placing a million users costs a few hundred numpy calls rather than a
million Python transitions, so a run costs what its events cost.

The events themselves run compiled.  After placement,
:meth:`_Engine.run` hands the loop to the kernel library's events
step (:class:`repro.memsys.fastpath_coherence.EventFrame`), which
plays it in place on this engine's columns, pools and rings and draws
from its generator through numpy's own samplers, one call per window;
each window is closed here, by :meth:`_Engine._close_window`.  The
Python loop (:meth:`_Engine._run_reference`) is the reference the step
reproduces bit for bit.  It runs under ``JMMW_FASTPATH=0`` and when the
step declines (no C compiler, or no ``libnpyrandom.a``); the
``loadplane/simulate`` span records which loop ran (``events``).

Every window's accounting is audited against the operational laws
(see :mod:`repro.loadplane.windows`); a violation raises
:class:`~repro.errors.InvariantViolation` — mis-transitioned users
cannot pass silently.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.appserver.connpool import ConnectionPool
from repro.appserver.threadpool import ThreadPool
from repro.errors import ConfigError, InvariantViolation, SimulationError
from repro.loadplane import analytic
from repro.loadplane.state import (
    CPU,
    DB,
    FREE,
    Q_CONN,
    Q_THREAD,
    THINKING,
    FifoRing,
    IndexPool,
    UserColumns,
)
from repro.loadplane.windows import (
    StableAggregate,
    WindowStats,
    aggregate_stable,
    operational_identity_errors,
)
from repro.rng import RngFactory
from repro.workloads.mix import (
    ECPERF_MIX,
    SPECJBB_MIX,
    UNIFORM_PROFILE,
    ServiceProfile,
    service_profile,
)

#: Test seam: the closed-loop think-completion rate is multiplied by
#: this module constant.  Production value 1.0; the queueing-oracle
#: suite patches it to model a biased think-time sampler and prove the
#: analytic cross-check fails loudly (see
#: ``tests/loadplane/test_queueing_oracle.py``).
_THINK_RATE_SCALE = 1.0


def _window_clip(t0: float, window_start: float) -> float:
    """Clip a residence-interval start to the current window.

    Module-level so the seeded-defect tests can break the per-user
    residence accounting in one place and watch the operational-law
    audit catch it.
    """
    return t0 if t0 > window_start else window_start


def profile_for(workload: str) -> ServiceProfile:
    """The per-transaction-type service profile for a mix name."""
    if workload == "specjbb":
        return service_profile(SPECJBB_MIX)
    if workload == "ecperf":
        return service_profile(ECPERF_MIX)
    if workload == "uniform":
        return UNIFORM_PROFILE
    raise ConfigError(
        f"unknown workload {workload!r} (known: ecperf, specjbb, uniform)"
    )


@dataclass(frozen=True)
class LoadPlaneConfig:
    """One load-plane run: population, stations, mix and measurement.

    ``service_s`` is the mix-weighted mean total service demand per
    operation; the per-type CPU/DB stage means are derived from the
    workload's :class:`~repro.workloads.mix.ServiceProfile`.  The
    closed loop draws exponential think times with mean ``think_s``
    (wire :attr:`repro.workloads.driver.DriverModel.think_time_s` in
    here); the open loop replaces think with a Poisson arrival stream
    of ``arrival_rate`` per second over ``n_users`` request slots —
    arrivals beyond the slot capacity are counted as drops.
    """

    n_users: int
    threads: int = 8
    connections: int = 8
    service_s: float = 0.02
    think_s: float = 1.2
    workload: str = "uniform"
    open_loop: bool = False
    arrival_rate: float = 0.0
    windows: int = 8
    window_s: float = 1.0
    warmup_fraction: float = 0.25
    seed: int = 1234
    warm_start: bool = True
    max_events: int = 50_000_000

    def __post_init__(self) -> None:
        if self.n_users < 1:
            raise ConfigError("n_users must be >= 1")
        if self.threads < 1 or self.connections < 1:
            raise ConfigError("threads and connections must be >= 1")
        if self.service_s <= 0:
            raise ConfigError("service_s must be positive")
        if self.think_s < 0:
            raise ConfigError("think_s must be non-negative")
        if self.open_loop and self.arrival_rate <= 0:
            raise ConfigError("open loop needs a positive arrival_rate")
        if not self.open_loop and self.arrival_rate:
            raise ConfigError("arrival_rate only applies to the open loop")
        if self.windows < 1 or self.window_s <= 0:
            raise ConfigError("need >= 1 window of positive duration")
        if not 0.0 <= self.warmup_fraction < 1.0:
            raise ConfigError("warmup_fraction must be in [0, 1)")
        if self.max_events < 1:
            raise ConfigError("max_events must be positive")
        profile_for(self.workload)  # validates the mix name


@dataclass(frozen=True)
class LoadPlaneResult:
    """Everything one run measured (picklable for the harness)."""

    config: LoadPlaneConfig
    windows: tuple[WindowStats, ...]
    stable: StableAggregate
    events: int
    thread_acquires: int
    thread_rejected: int
    thread_peak: int
    conn_acquires: int
    conn_blocked: int
    conn_peak: int
    identity_errors: tuple[str, ...] = field(default=())

    @property
    def offered_users(self) -> int:
        return self.config.n_users


class _RandomBlocks:
    """Block-buffered draws from one named stream (hot-loop friendly).

    Each block is an ``array('d')`` that the generator refills in place
    (``out=``) with the draws a sized call would return, so a scalar
    draw reads a Python float and the kernel's events step reads and
    refills the same two buffers.  Scalar and bulk uniforms
    (:meth:`uniform`, :meth:`uniform_runs`) advance one position in one
    sequence of blocks.
    """

    __slots__ = ("_rng", "_block", "_uni", "_ui", "_exp", "_ei")

    def __init__(self, rng: np.random.Generator, block: int = 8192) -> None:
        self._rng = rng
        self._block = block
        self._uni = array("d", bytes(8 * block))
        self._exp = array("d", bytes(8 * block))
        self._refill_uniforms()
        self._ui = 0
        self._refill_exponentials()
        self._ei = 0

    def _refill_uniforms(self) -> None:
        self._rng.random(out=np.frombuffer(self._uni))

    def _refill_exponentials(self) -> None:
        self._rng.standard_exponential(out=np.frombuffer(self._exp))

    def uniform(self) -> float:
        i = self._ui
        if i >= self._block:
            self._refill_uniforms()
            i = 0
        self._ui = i + 1
        return self._uni[i]

    def uniform_runs(self, k: int) -> Iterator[np.ndarray]:
        """The next ``k`` uniforms, in runs of at most one block.

        Equal to ``k`` calls of :meth:`uniform`: the next block is
        drawn only when a run needs it, where the scalar calls would
        draw it.  Each run is a copy, so it stays valid after a later
        run refills the block.
        """
        while k > 0:
            i = self._ui
            if i >= self._block:
                self._refill_uniforms()
                i = 0
            n = min(k, self._block - i)
            self._ui = i + n
            k -= n
            yield np.frombuffer(self._uni)[i:i + n].copy()

    def exponential(self) -> float:
        i = self._ei
        if i >= self._block:
            self._refill_exponentials()
            i = 0
        self._ei = i + 1
        return self._exp[i]


def _kernel_module():
    """:mod:`repro.memsys.fastpath_coherence`, imported on first use, or
    None under ``JMMW_FASTPATH=0`` (the events step is not asked)."""
    from repro.memsys.fastpath import fastpath_enabled

    if not fastpath_enabled():
        return None
    from repro.memsys import fastpath_coherence

    return fastpath_coherence


class _Engine:
    """One simulation run; see :func:`simulate_loadplane`."""

    def __init__(self, config: LoadPlaneConfig) -> None:
        # The kernel module first: without cached bytecode its import
        # compiles it, and compiling before this run allocates keeps the
        # compiler's working memory off the run's peak (the saturation
        # campaign's peak RSS is 0.8 MB lower than when the import comes
        # after placement, on a 2-vCPU x86-64 VM).
        self._kernel = _kernel_module()
        self.config = config
        profile = profile_for(config.workload)
        self.profile = profile
        self.n_types = len(profile.names)
        self.cum_probs = list(np.cumsum(profile.probs))
        self.cpu_mean = [
            config.service_s * w * (1.0 - d)
            for w, d in zip(profile.weights, profile.db_share)
        ]
        self.db_mean = [
            config.service_s * w * d
            for w, d in zip(profile.weights, profile.db_share)
        ]
        if any(mean <= 0 for mean in self.cpu_mean):
            raise ConfigError("every type needs a positive CPU stage")
        self.mu_cpu = [1.0 / mean for mean in self.cpu_mean]
        self.mu_db = [1.0 / mean if mean > 0 else 0.0 for mean in self.db_mean]

        n = config.n_users
        self.users = UserColumns(n)
        self.slot_of = np.full(n, -1, dtype=np.int64)
        self.idle_pool = IndexPool(n, self.slot_of)  # think set / free slots
        self.thread_queue = FifoRing(n)
        conn_waiters = max(1, min(config.threads, n))
        self.conn_queue = FifoRing(conn_waiters)
        station = max(1, min(config.threads, n))
        self.cpu_pools = [IndexPool(station, self.slot_of) for _ in range(self.n_types)]
        db_station = max(1, min(config.connections, n))
        self.db_pools = [IndexPool(db_station, self.slot_of) for _ in range(self.n_types)]
        self.thread_pool = ThreadPool(config.threads)
        self.conn_pool = ConnectionPool(config.connections)

        self.rand = _RandomBlocks(
            RngFactory(seed=config.seed).stream("loadplane")
        )
        self.inv_think = (
            0.0 if config.open_loop or config.think_s == 0
            else 1.0 / config.think_s
        )
        #: Which implementation ran the events: ``kernel`` or ``reference``.
        self.step = "reference"
        self.n_sys = 0
        self.events = 0
        self.now = 0.0
        self.win = WindowStats(start_s=0.0, end_s=config.window_s)
        self.closed_windows: list[WindowStats] = []

    # -- transitions --------------------------------------------------------

    def _sample_type(self) -> int:
        return bisect_right(self.cum_probs, self.rand.uniform())

    def _start_cpu(self, user: int, now: float) -> None:
        self.users.phase[user] = CPU
        self.users.t_thread[user] = now
        self.cpu_pools[int(self.users.txn[user])].add(user)

    def _start_db(self, user: int, now: float) -> None:
        self.users.phase[user] = DB
        self.users.t_conn[user] = now
        self.db_pools[int(self.users.txn[user])].add(user)

    def _arrive(self, user: int, now: float) -> None:
        self.win.arrivals += 1
        self.users.txn[user] = self._sample_type()
        self.users.t_enter[user] = now
        self.n_sys += 1
        if self.thread_pool.try_acquire():
            self._start_cpu(user, now)
        else:
            self.users.phase[user] = Q_THREAD
            self.thread_queue.push(user)

    def _complete_cpu(self, user: int, now: float) -> None:
        txn = int(self.users.txn[user])
        if self.db_mean[txn] > 0:
            if self.conn_pool.try_acquire():
                self._start_db(user, now)
            else:
                self.users.phase[user] = Q_CONN
                self.conn_queue.push(user)
        else:
            self._finish(user, now)

    def _complete_db(self, user: int, now: float) -> None:
        self.win.residence_busy_conns += now - _window_clip(
            float(self.users.t_conn[user]), self.win.start_s
        )
        self.conn_pool.release()
        if self.conn_queue.size:
            waiter = self.conn_queue.pop()
            if not self.conn_pool.try_acquire():
                raise SimulationError("a waiter found no connection to take")
            self._start_db(waiter, now)
        self._finish(user, now)

    def _finish(self, user: int, now: float) -> None:
        win = self.win
        response = now - float(self.users.t_enter[user])
        win.completions += 1
        win.resp_sum_s += response
        win.hist.add(response)
        win.residence_n += now - _window_clip(
            float(self.users.t_enter[user]), win.start_s
        )
        win.residence_busy_threads += now - _window_clip(
            float(self.users.t_thread[user]), win.start_s
        )
        self.thread_pool.release()
        self.n_sys -= 1
        if self.thread_queue.size:
            waiter = self.thread_queue.pop()
            if not self.thread_pool.try_acquire():
                raise SimulationError("a waiter found no thread to take")
            self._start_cpu(waiter, now)
        if self.config.open_loop:
            self.users.phase[user] = FREE
            self.idle_pool.add(user)
        elif self.config.think_s > 0:
            self.users.phase[user] = THINKING
            self.idle_pool.add(user)
        else:
            self._arrive(user, now)  # zero think: instant re-entry

    # -- measurement --------------------------------------------------------

    def _integrate(self, t0: float, t1: float) -> None:
        dt = t1 - t0
        win = self.win
        win.area_n += self.n_sys * dt
        win.area_busy_threads += self.thread_pool.in_use * dt
        win.area_busy_conns += self.conn_pool.in_use * dt

    def _close_window(self) -> None:
        """Flush still-resident users' partial sojourns, open the next."""
        win = self.win
        phase = self.users.phase
        end = win.end_s
        start = win.start_s
        in_sys = (phase >= Q_THREAD) & (phase <= DB)
        idx = np.nonzero(in_sys)[0]
        if idx.size:
            win.residence_n += float(
                np.sum(end - np.maximum(self.users.t_enter[idx], start))
            )
        holders = np.nonzero((phase >= CPU) & (phase <= DB))[0]
        if holders.size:
            win.residence_busy_threads += float(
                np.sum(end - np.maximum(self.users.t_thread[holders], start))
            )
        db_users = np.nonzero(phase == DB)[0]
        if db_users.size:
            win.residence_busy_conns += float(
                np.sum(end - np.maximum(self.users.t_conn[db_users], start))
            )
        self.closed_windows.append(win)
        self.win = WindowStats(
            start_s=end, end_s=end + self.config.window_s
        )

    # -- setup --------------------------------------------------------------

    def _warm_start_population(self) -> int:
        """Expected station population from the analytic fixed point."""
        config = self.config
        if config.open_loop:
            offered = config.arrival_rate * config.service_s / config.threads
            if offered >= 1.0:
                return min(config.n_users, config.threads)
            metrics = analytic.mmc_metrics(
                config.arrival_rate, config.service_s, config.threads
            )
            return min(config.n_users, int(round(metrics.mean_in_system)))
        metrics = analytic.closed_mmc_metrics(
            config.n_users, config.think_s, config.service_s, config.threads
        )
        return min(config.n_users, int(round(metrics.mean_in_system)))

    def _place_users(self) -> None:
        """Place the starting population, in bulk.

        Leaves exactly the state of the per-user loop ::

            for user in range(placed):
                self._arrive(user, 0.0)
            self.win.arrivals = 0  # placement is initial state, not arrivals
            for user in range(placed, n_users):
                self.users.phase[user] = FREE if open_loop else THINKING
                self.idle_pool.add(user)

        and draws the same uniforms in the same order.  The transaction
        types come from one ``searchsorted`` per block of uniforms; the
        first ``min(placed, threads)`` users start their CPU phase in
        user order, the rest of the placed users join the thread queue
        and the idle users the idle pool, each in user order, by range
        writes.  Set-up is a few numpy calls per 8,192 users, plus at
        most ``threads`` CPU starts; no temporary outgrows one block.
        """
        config = self.config
        n = config.n_users
        placed = self._warm_start_population() if config.warm_start else 0
        if not config.open_loop and config.think_s == 0:
            placed = n  # zero think: nobody ever thinks
        with obs.span("loadplane/place", placed=placed):
            users = self.users
            lo = 0
            for run in self.rand.uniform_runs(placed):
                users.txn[lo:lo + len(run)] = np.searchsorted(
                    self.cum_probs, run, side="right"
                )
                lo += len(run)
            users.t_enter[:placed] = 0.0
            self.n_sys += placed
            started = self.thread_pool.try_acquire_many(placed)
            for user in range(started):
                self._start_cpu(user, 0.0)
            users.phase[started:placed] = Q_THREAD
            self.thread_queue.push_range(started, placed)
            users.phase[placed:] = FREE if config.open_loop else THINKING
            self.idle_pool.add_range(placed, n)

    # -- main loop ----------------------------------------------------------

    def run(self) -> LoadPlaneResult:
        """Place the users, then play the events: in the kernel's events
        step (:class:`~repro.memsys.fastpath_coherence.EventFrame`) when
        the fast path is on and the step is built, else in the Python
        reference loop.  Both leave the same state, bit for bit."""
        self._place_users()
        if self._kernel is not None:
            frame = self._kernel.event_frame(self, _THINK_RATE_SCALE)
            if frame is not None:
                self.step = "kernel"
                return self._run_kernel(frame)
        return self._run_reference()

    def budget_error(self) -> SimulationError:
        """The error a run raises when its event budget runs out."""
        return SimulationError(
            f"load plane exceeded its {self.config.max_events} event "
            f"budget at t={self.now:.3f}s; shrink the horizon or "
            f"raise max_events"
        )

    def _run_kernel(self, frame) -> LoadPlaneResult:
        """The compiled loop: one step call per window, each window
        closed here as the reference closes it."""
        while True:
            frame.run()
            self._close_window()
            if len(self.closed_windows) >= self.config.windows:
                return self._result()

    def _run_reference(self) -> LoadPlaneResult:
        """The Python loop: the reference the events step reproduces."""
        config = self.config
        horizon = config.windows * config.window_s
        inv_think = self.inv_think
        while True:
            think_rate = (
                config.arrival_rate if config.open_loop
                else self.idle_pool.size * inv_think * _THINK_RATE_SCALE
            )
            total = think_rate
            cpu_rates = []
            for txn in range(self.n_types):
                rate = self.cpu_pools[txn].size * self.mu_cpu[txn]
                cpu_rates.append(rate)
                total += rate
            db_rates = []
            for txn in range(self.n_types):
                rate = self.db_pools[txn].size * self.mu_db[txn]
                db_rates.append(rate)
                total += rate
            t_next = horizon if total <= 0 else (
                self.now + self.rand.exponential() / total
            )
            # Integrate up to the event, closing windows crossed on the way.
            while t_next >= self.win.end_s:
                self._integrate(self.now, self.win.end_s)
                self.now = self.win.end_s
                self._close_window()
                if len(self.closed_windows) >= config.windows:
                    return self._result()
            self._integrate(self.now, t_next)
            self.now = t_next
            self.events += 1
            if self.events > config.max_events:
                raise self.budget_error()
            # Pick the firing clock: one uniform against the rate ladder.
            pick = self.rand.uniform() * total
            if pick < think_rate:
                if config.open_loop:
                    if self.idle_pool.size == 0:
                        self.win.drops += 1
                    else:
                        self._arrive(self.idle_pool.pop(), self.now)
                else:
                    user = self.idle_pool.sample_remove(self.rand.uniform())
                    self._arrive(user, self.now)
                continue
            pick -= think_rate
            fired = False
            for txn in range(self.n_types):
                if pick < cpu_rates[txn]:
                    user = self.cpu_pools[txn].sample_remove(self.rand.uniform())
                    self._complete_cpu(user, self.now)
                    fired = True
                    break
                pick -= cpu_rates[txn]
            if fired:
                continue
            for txn in range(self.n_types):
                if pick < db_rates[txn] or txn == self.n_types - 1:
                    user = self.db_pools[txn].sample_remove(self.rand.uniform())
                    self._complete_db(user, self.now)
                    break
                pick -= db_rates[txn]

    def _result(self) -> LoadPlaneResult:
        config = self.config
        windows = self.closed_windows
        stable = aggregate_stable(
            windows, config.warmup_fraction, config.threads, config.connections
        )
        errors = operational_identity_errors(windows)
        obs.incr("loadplane/events", self.events)
        obs.incr("loadplane/completions", stable.completions)
        obs.incr("loadplane/drops", stable.drops)
        return LoadPlaneResult(
            config=config,
            windows=tuple(windows),
            stable=stable,
            events=self.events,
            thread_acquires=self.thread_pool.acquires,
            thread_rejected=self.thread_pool.rejected,
            thread_peak=self.thread_pool.peak_in_use,
            conn_acquires=self.conn_pool.acquires,
            conn_blocked=self.conn_pool.blocked,
            conn_peak=self.conn_pool.peak_in_use,
            identity_errors=tuple(errors),
        )


def simulate_loadplane(
    config: LoadPlaneConfig, *, check_identities: bool = True
) -> LoadPlaneResult:
    """Run one load-plane simulation.

    With ``check_identities`` (the default) an operational-law
    violation in any window raises
    :class:`~repro.errors.InvariantViolation`; passing ``False``
    returns the result with :attr:`LoadPlaneResult.identity_errors`
    populated instead (the seeded-defect tests inspect it).
    """
    with obs.span("loadplane/simulate") as span:
        engine = _Engine(config)
        result = engine.run()
        span.annotate(events=engine.step)
    if check_identities and result.identity_errors:
        raise InvariantViolation(
            "operational-law audit failed: "
            + "; ".join(result.identity_errors[:3])
        )
    return result
