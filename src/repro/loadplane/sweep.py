"""Offered-load sweeps: saturation curves with knee detection.

A sweep runs :func:`~repro.loadplane.engine.simulate_loadplane` over a
ladder of closed-loop populations on the harness rails — one
:class:`~repro.harness.Task` per population, content-keyed for the
result cache, bit-identical serial vs ``--jobs N`` — then lines the
measured curve up against the analytic layer: the asymptotic-bound
bottleneck (which station saturates, where the knee must be) and the
exact closed M/M/c//N thread-station prediction per point.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.report import ascii_plot, render_table
from repro.errors import ConfigError, HarnessError
from repro.harness import FaultPolicy, Task, content_key, run_tasks
from repro.harness.cache import run_switches
from repro.loadplane import analytic
from repro.loadplane.engine import (
    LoadPlaneConfig,
    LoadPlaneResult,
    profile_for,
    simulate_loadplane,
)

#: Population ladders: the quick ladder crosses the default knee
#: (~500 users at 8 threads x 20 ms service, 1.2 s think) in seconds;
#: the full ladder runs to a million users (feasible because the
#: warm-started event rate is set by throughput, not population).
QUICK_POPULATIONS = (8, 32, 128, 512, 2048)
FULL_POPULATIONS = (10, 100, 1_000, 10_000, 100_000, 1_000_000)


@dataclass(frozen=True)
class SweepConfig:
    """A saturation sweep: one load-plane config per population."""

    populations: tuple[int, ...] = QUICK_POPULATIONS
    threads: int = 8
    connections: int = 8
    service_s: float = 0.02
    think_s: float = 1.2
    workload: str = "uniform"
    windows: int = 8
    window_s: float = 2.0
    warmup_fraction: float = 0.25
    seed: int = 1234

    def __post_init__(self) -> None:
        if not self.populations:
            raise ConfigError("sweep needs at least one population")
        if len(set(self.populations)) != len(self.populations):
            raise ConfigError("sweep populations must be distinct")
        self.point(min(self.populations))  # validate the shared knobs

    def point(self, n_users: int) -> LoadPlaneConfig:
        """The load-plane config for one population on this sweep."""
        return LoadPlaneConfig(
            n_users=n_users,
            threads=self.threads,
            connections=self.connections,
            service_s=self.service_s,
            think_s=self.think_s,
            workload=self.workload,
            windows=self.windows,
            window_s=self.window_s,
            warmup_fraction=self.warmup_fraction,
            seed=self.seed,
        )

    def bottleneck(self) -> analytic.Bottleneck:
        """Asymptotic-bound analysis of this sweep's two stations."""
        profile = profile_for(self.workload)
        db_demand = self.service_s * sum(
            p * w * d
            for p, w, d in zip(profile.probs, profile.weights, profile.db_share)
        )
        return analytic.bottleneck_analysis(
            demands_s={"threads": self.service_s, "connections": db_demand},
            capacities={"threads": self.threads, "connections": self.connections},
            think_s=self.think_s,
        )


def _sweep_cell(config: LoadPlaneConfig) -> LoadPlaneResult:
    """Module-level cell fn (workers import it by reference)."""
    return simulate_loadplane(config)


def _point_key(config: LoadPlaneConfig) -> str:
    """A point's result-cache key: its config and the run switches (a
    ``JMMW_FASTPATH=0`` run must not be served a kernel-run result)."""
    return content_key(
        kind="loadplane/point",
        n_users=config.n_users,
        threads=config.threads,
        connections=config.connections,
        service_s=config.service_s,
        think_s=config.think_s,
        workload=config.workload,
        open_loop=config.open_loop,
        arrival_rate=config.arrival_rate,
        windows=config.windows,
        window_s=config.window_s,
        warmup_fraction=config.warmup_fraction,
        seed=config.seed,
        warm_start=config.warm_start,
        **run_switches(),
    )


def sweep_tasks(sweep: SweepConfig) -> list[Task]:
    """One cache-keyed harness task per sweep population."""
    return [
        Task(
            key=f"loadplane/n{n_users}",
            fn=_sweep_cell,
            args=(sweep.point(n_users),),
            cache_key=_point_key(sweep.point(n_users)),
        )
        for n_users in sweep.populations
    ]


@dataclass(frozen=True)
class SaturationReport:
    """A finished sweep: measured points plus the analytic overlay."""

    sweep: SweepConfig
    results: tuple[LoadPlaneResult, ...]
    bottleneck: analytic.Bottleneck
    knee_users: int | None  # first measured point off the linear regime

    def render(self, plot: bool = True) -> str:
        """The saturation-curve report (table + knee/bottleneck lines)."""
        rows = []
        for result in self.results:
            stable = result.stable
            predicted = analytic.closed_mmc_metrics(
                result.config.n_users,
                self.sweep.think_s,
                self.sweep.service_s,
                self.sweep.threads,
            )
            rows.append(
                (
                    result.config.n_users,
                    stable.throughput,
                    predicted.throughput,
                    stable.response_time_s * 1e3,
                    stable.p95_s * 1e3,
                    stable.p99_s * 1e3,
                    stable.thread_utilization,
                    stable.conn_utilization,
                    result.events,
                )
            )
        lines = [
            f"saturation sweep: workload={self.sweep.workload} "
            f"threads={self.sweep.threads} connections={self.sweep.connections} "
            f"service={self.sweep.service_s * 1e3:g}ms think={self.sweep.think_s:g}s",
            "",
            render_table(
                (
                    "users", "X/s", "X_mmc/s", "R_ms", "p95_ms", "p99_ms",
                    "U_thr", "U_conn", "events",
                ),
                rows,
            ),
            "",
            self.bottleneck.describe(),
        ]
        if self.knee_users is None:
            lines.append(
                "measured knee: none (sweep stayed in the linear regime)"
            )
        else:
            lines.append(
                f"measured knee: {self.knee_users} users (first point below "
                f"{analytic.KNEE_FRACTION:g}x the linear asymptote; analytic "
                f"knee ~{self.bottleneck.knee_users:.0f})"
            )
        if plot and len(self.results) > 1:
            series = {
                "measured": [
                    (float(r.config.n_users), r.stable.throughput)
                    for r in self.results
                ]
            }
            lines += ["", ascii_plot(series, logx=True)]
        return "\n".join(lines)


def run_saturation(
    sweep: SweepConfig,
    *,
    jobs: int = 1,
    cache=None,
    manifest=None,
    faults: FaultPolicy | None = None,
    interruptible: bool = False,
) -> SaturationReport:
    """Run the sweep on the harness and assemble the report.

    Raises the first point's failure if any population fails — a
    saturation curve with silent holes would misplace the knee.
    ``interruptible=True`` drains on SIGINT/SIGTERM and raises
    :class:`~repro.errors.CampaignInterrupted` (see
    :func:`repro.harness.run_tasks`).
    """
    outcomes = run_tasks(
        sweep_tasks(sweep),
        jobs=jobs,
        cache=cache,
        manifest=manifest,
        faults=faults,
        interruptible=interruptible,
    )
    failed = [o.failure for o in outcomes if not o.ok]
    if failed:
        raise HarnessError(
            "saturation sweep lost point(s): "
            + "; ".join(str(f) for f in failed)
        )
    results = tuple(
        sorted((o.value for o in outcomes), key=lambda r: r.config.n_users)
    )
    knee = analytic.measured_knee(
        [(r.config.n_users, r.stable.throughput) for r in results],
        sweep.think_s,
        sweep.service_s,
    )
    return SaturationReport(
        sweep=sweep,
        results=results,
        bottleneck=sweep.bottleneck(),
        knee_users=knee,
    )
