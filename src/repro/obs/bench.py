"""The ``jmmw bench`` suite: a performance trajectory for the pipeline.

Times a declared set of representative stages — the vectorized replay
kernels, the scalar reference replays, figure 12/13/16 end-to-end, and
the harness with a cold and a warm result cache — over N repetitions,
reports median and interquartile range, and writes a machine-readable
``BENCH_<timestamp>.json`` snapshot at the repo root.  Each run
compares itself against the most recent prior snapshot and **fails**
(exit code 3 from the CLI) when any stage's median regresses past a
configurable threshold, so a PR that slows the pipeline down breaks
loudly instead of silently accumulating.

Stage setup (trace generation, cache construction) happens outside the
timed region; only the operation named by the stage is measured.
Medians are compared rather than means so one descheduled repetition
cannot fake a regression, and stages faster than
:data:`MIN_COMPARABLE_S` are never compared at all — at that scale the
timer measures the machine, not the code.
"""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro import obs
from repro.core.config import SimConfig
from repro.core.report import render_table
from repro.errors import ConfigError

#: Snapshot filename prefix; the comparison baseline is the latest
#: ``BENCH_*.json`` (filename sort = chronological, timestamps are UTC).
SNAPSHOT_PREFIX = "BENCH_"

#: Stage medians below this are timer noise, never compared.
MIN_COMPARABLE_S = 0.001

#: Default regression threshold: fail when median > 1.5x the baseline.
DEFAULT_THRESHOLD = 1.5

#: Simulation effort for the figure stages (smaller than the figure
#: drivers' QUICK_SIM: a bench rep must cost seconds, not minutes).
BENCH_SIM = SimConfig(seed=1234, refs_per_proc=30_000, warmup_fraction=0.5)
QUICK_BENCH_SIM = SimConfig(seed=1234, refs_per_proc=8_000, warmup_fraction=0.5)

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class StageResult:
    """Timing summary of one stage over all repetitions."""

    name: str
    reps: list[float]

    @property
    def median_s(self) -> float:
        return statistics.median(self.reps)

    @property
    def iqr_s(self) -> float:
        if len(self.reps) < 2:
            return 0.0
        qs = statistics.quantiles(self.reps, n=4, method="inclusive")
        return qs[2] - qs[0]


@dataclass(frozen=True)
class Regression:
    """One stage that got slower than the baseline allows."""

    stage: str
    baseline_s: float
    current_s: float
    threshold: float

    @property
    def ratio(self) -> float:
        return self.current_s / self.baseline_s if self.baseline_s else float("inf")

    def __str__(self) -> str:
        return (
            f"{self.stage}: {self.current_s:.4f}s vs baseline "
            f"{self.baseline_s:.4f}s ({self.ratio:.2f}x > {self.threshold:.2f}x)"
        )


# -- the declared suite -----------------------------------------------------


def _bench_trace(sim: SimConfig):
    """One seeded single-CPU SPECjbb trace, shared by kernel stages."""
    from repro.figures.common import figure_trace
    from repro.harness.traceplane import TraceSpec

    return figure_trace(TraceSpec("specjbb", 8, 1, sim)).per_cpu[0]


def _hierarchy_traces(sim: SimConfig) -> list[list[int]]:
    """The 4-processor SPECjbb trace both hierarchy stages replay."""
    from repro.figures.common import figure_trace
    from repro.harness.traceplane import TraceSpec

    return figure_trace(TraceSpec.official("specjbb", 4, sim)).per_cpu_lists()


def _stage_lru_kernel(sim: SimConfig) -> Callable[[], None]:
    from repro.memsys.config import CacheConfig
    from repro.memsys.fastpath import block_stream, lru_miss_mask

    import numpy as np

    blocks = np.asarray(
        block_stream(_bench_trace(sim), "data"), dtype=np.uint64
    )
    config = CacheConfig(size=256 * 1024, assoc=4, block=64)

    def run() -> None:
        lru_miss_mask(blocks, config.set_mask, config.assoc)

    return run


def _stage_stackdist_kernel(sim: SimConfig) -> Callable[[], None]:
    from repro.memsys.fastpath import block_stream, stack_distance_histogram

    blocks = block_stream(_bench_trace(sim), "data")

    def run() -> None:
        stack_distance_histogram(blocks)

    return run


def _stage_scalar_sweep(sim: SimConfig) -> Callable[[], None]:
    from repro.memsys.multisim import simulate_miss_curve

    trace = _bench_trace(sim).tolist()
    sizes = [64 * 1024, 256 * 1024, 1024 * 1024]

    def run() -> None:
        simulate_miss_curve(
            trace, sizes, kind="data", warmup_fraction=0.5, fastpath=False
        )

    return run


def _stage_scalar_hierarchy(sim: SimConfig) -> Callable[[], None]:
    from repro.memsys.config import e6000_machine
    from repro.memsys.hierarchy import MemoryHierarchy

    traces = _hierarchy_traces(sim)
    machine = e6000_machine(len(traces))

    def run() -> None:
        hierarchy = MemoryHierarchy(machine)
        hierarchy.run_trace(
            traces,
            quantum=sim.interleave_quantum,
            warmup_fraction=0.5,
            fastpath=False,
        )

    return run


def _stage_coherent_replay(sim: SimConfig) -> Callable[[], None]:
    """Same replay as ``scalar/hierarchy_4p`` through the C kernel."""
    from repro.memsys.config import e6000_machine
    from repro.memsys.hierarchy import MemoryHierarchy

    traces = _hierarchy_traces(sim)
    machine = e6000_machine(len(traces))

    def run() -> None:
        hierarchy = MemoryHierarchy(machine)
        hierarchy.run_trace(
            traces,
            quantum=sim.interleave_quantum,
            warmup_fraction=0.5,
            fastpath=True,
        )

    return run


def _stage_figure(
    module_name: str, sim: SimConfig, fastpath: bool | None = None
) -> Callable[[], None]:
    from repro.figures.common import run_figure
    from repro.memsys.fastpath import set_fastpath

    def run() -> None:
        if fastpath is None:
            run_figure(module_name, sim)
            return
        set_fastpath(fastpath)
        try:
            run_figure(module_name, sim)
        finally:
            set_fastpath(None)

    return run


def _bench_campaign_point(size: int, seed: int) -> float:
    """Tiny deterministic harness payload (module-level: picklable)."""
    import numpy as np

    rng = np.random.default_rng(seed)
    values = rng.standard_normal(size)
    return float((values * values).sum())


def _stage_harness(sim: SimConfig, warm: bool) -> Callable[[], None]:
    import atexit
    import shutil
    import tempfile

    from repro.harness import ResultCache, Task, content_key, run_tasks

    size = max(1000, sim.refs_per_proc // 4)
    tasks = [
        Task(
            key=f"bench-point-{i}",
            fn=_bench_campaign_point,
            args=(size, 1234 + i),
            cache_key=content_key(stage="bench", size=size, seed=1234 + i),
        )
        for i in range(8)
    ]

    if warm:
        # Prime once here (untimed); reps then measure pure cache hits.
        root = Path(tempfile.mkdtemp(prefix="jmmw-bench-cache-"))
        atexit.register(shutil.rmtree, root, ignore_errors=True)
        cache = ResultCache(root)
        run_tasks(tasks, jobs=1, cache=cache)

        def run() -> None:
            run_tasks(tasks, jobs=1, cache=cache)

        return run

    def run() -> None:
        # Fresh store per rep: misses, compute, and write-back are the
        # cold-cache cost being tracked.
        root = Path(tempfile.mkdtemp(prefix="jmmw-bench-cache-"))
        try:
            run_tasks(tasks, jobs=1, cache=ResultCache(root))
        finally:
            shutil.rmtree(root, ignore_errors=True)

    return run


def _stage_sweep(sim: SimConfig, plane_on: bool) -> Callable[[], None]:
    """A sharded miss-curve sweep, with and without the trace plane.

    One task per cache size, two workers.  The cold variant makes each
    shard regenerate the trace; the plane variant generates it once and
    publishes it as shared memory (publish happens inside the timed
    region — the generate-once cost is part of what the plane buys).
    The pair quantifies the generate-once/replay-many win.
    """
    from repro.figures.fig12_icache import CACHE_SIZES
    from repro.harness.runner import run_tasks
    from repro.harness.tasks import build_miss_curve_sweep_tasks
    from repro.harness.traceplane import TracePlane, TraceSpec

    spec = TraceSpec(workload="specjbb", scale=8, n_procs=1, sim=sim)

    def run() -> None:
        plane = TracePlane() if plane_on else None
        try:
            tasks = build_miss_curve_sweep_tasks(
                spec, CACHE_SIZES, "instr", plane=plane
            )
            run_tasks(tasks, jobs=2, plane=plane)
        finally:
            if plane is not None:
                plane.close()

    return run


def _stage_campaign_scheduler(sim: SimConfig) -> Callable[[], None]:
    """Scheduler overhead: a serial campaign over trivial cells.

    Times the campaign machinery itself — table expansion, dispatch,
    event handling, outcome bookkeeping — with near-zero cell cost, so
    a scheduling-loop regression (per-cell overhead creeping up) shows
    here long before it would be visible under real simulation cells.
    """
    from repro.campaign import (
        Axis,
        CampaignPolicy,
        CampaignSpec,
        RunTable,
        SerialExecutor,
        run_campaign,
    )
    from repro.campaign.studies import smoke_cell
    from repro.harness import FaultPolicy

    spec = CampaignSpec(
        name="bench",
        table=RunTable(
            name="bench",
            axes=(Axis("a", tuple(range(24))), Axis("b", tuple(range(4)))),
            reps=2,
        ),
        fn=smoke_cell,
    )
    policy = CampaignPolicy(
        faults=FaultPolicy(max_attempts=2, backoff_s=0.0), speculate=False
    )

    def run() -> None:
        run_campaign(spec, SerialExecutor(), policy=policy)

    return run


def _stage_loadplane(sim: SimConfig) -> Callable[[], None]:
    """One saturated closed-loop load-plane run.

    A population past the knee (2000 users on 8 threads at 20 ms)
    exercises every hot path of the Gillespie engine — rate ladder,
    swap-remove station pools, FIFO handoff, window accounting and the
    operational-law audit — at the event rate the saturation sweeps
    sustain.  The horizon scales with the bench effort so a quick rep
    still costs well above timer noise.
    """
    from repro.loadplane import LoadPlaneConfig, simulate_loadplane

    config = LoadPlaneConfig(
        n_users=2000,
        threads=8,
        connections=8,
        service_s=0.02,
        think_s=1.2,
        windows=8 if sim.refs_per_proc >= 30_000 else 4,
        window_s=1.0,
        seed=sim.seed,
    )

    def run() -> None:
        simulate_loadplane(config)

    return run


#: The declared suite: (stage name, factory(sim) -> timed callable).
SUITE: list[tuple[str, Callable[[SimConfig], Callable[[], None]]]] = [
    ("fastpath/lru_miss_mask", _stage_lru_kernel),
    ("fastpath/stack_distances", _stage_stackdist_kernel),
    ("scalar/miss_curve", _stage_scalar_sweep),
    ("scalar/hierarchy_4p", _stage_scalar_hierarchy),
    ("memsys/coherent_replay", _stage_coherent_replay),
    ("figures/fig12", lambda sim: _stage_figure("fig12_icache", sim)),
    ("figures/fig13", lambda sim: _stage_figure("fig13_dcache", sim)),
    (
        "figures/fig16",
        lambda sim: _stage_figure("fig16_sharedcache", sim, fastpath=False),
    ),
    (
        "figures/fig16_fast",
        lambda sim: _stage_figure("fig16_sharedcache", sim, fastpath=True),
    ),
    ("harness/cold_cache", lambda sim: _stage_harness(sim, warm=False)),
    ("harness/warm_cache", lambda sim: _stage_harness(sim, warm=True)),
    ("harness/sweep_cold", lambda sim: _stage_sweep(sim, plane_on=False)),
    ("harness/sweep_plane", lambda sim: _stage_sweep(sim, plane_on=True)),
    ("campaign/scheduler", _stage_campaign_scheduler),
    ("loadplane/closed_loop", _stage_loadplane),
]


# -- running ----------------------------------------------------------------


def run_suite(
    reps: int = 5,
    quick: bool = False,
    stages: list[str] | None = None,
) -> list[StageResult]:
    """Time every suite stage ``reps`` times; setup is untimed."""
    if reps <= 0:
        raise ConfigError("reps must be positive")
    sim = QUICK_BENCH_SIM if quick else BENCH_SIM
    if quick:
        reps = min(reps, 3)
    selected = SUITE
    if stages:
        known = {name for name, _ in SUITE}
        unknown = sorted(set(stages) - known)
        if unknown:
            raise ConfigError(f"unknown stages {unknown}; known: {sorted(known)}")
        selected = [(name, fac) for name, fac in SUITE if name in set(stages)]
    results = []
    for name, factory in selected:
        with obs.span(f"bench/setup/{name}"):
            run = factory(sim)
        run()  # one untimed warmup rep: imports, allocator, branch caches
        timings = []
        for _ in range(reps):
            with obs.span(f"bench/run/{name}"):
                t0 = time.perf_counter()
                run()
                timings.append(time.perf_counter() - t0)
        results.append(StageResult(name=name, reps=timings))
    return results


# -- snapshots --------------------------------------------------------------


def snapshot_payload(
    results: list[StageResult], reps: int, quick: bool
) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "quick": quick,
        "reps": reps,
        "stages": {
            r.name: {
                "median_s": round(r.median_s, 6),
                "iqr_s": round(r.iqr_s, 6),
                "reps_s": [round(t, 6) for t in r.reps],
            }
            for r in results
        },
    }


def previous_snapshot(out_dir: str | Path) -> Path | None:
    """Latest existing ``BENCH_*.json`` under ``out_dir``, if any."""
    candidates = sorted(Path(out_dir).glob(f"{SNAPSHOT_PREFIX}*.json"))
    return candidates[-1] if candidates else None


def write_snapshot(payload: dict, out_dir: str | Path) -> Path:
    """Write ``BENCH_<timestamp>.json``; never overwrites an old one."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
    path = out_dir / f"{SNAPSHOT_PREFIX}{stamp}.json"
    suffix = 0
    while path.exists():  # same-second rerun
        suffix += 1
        # "_" sorts after "." so the suffixed name stays the newest
        # snapshot under previous_snapshot()'s filename ordering.
        path = out_dir / f"{SNAPSHOT_PREFIX}{stamp}_{suffix}.json"
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return path


def compare_snapshots(
    current: dict, baseline: dict, threshold: float = DEFAULT_THRESHOLD
) -> list[Regression]:
    """Stages whose median regressed past ``threshold`` x the baseline.

    Only stages present in both snapshots with medians above
    :data:`MIN_COMPARABLE_S` participate; quick and full snapshots are
    never compared against each other (different workload sizes).
    """
    if threshold <= 1.0:
        raise ConfigError("threshold must be > 1.0")
    if current.get("quick") != baseline.get("quick"):
        return []
    regressions = []
    base_stages = baseline.get("stages", {})
    for name, stage in current.get("stages", {}).items():
        base = base_stages.get(name)
        if base is None:
            continue
        base_median = base.get("median_s", 0.0)
        cur_median = stage.get("median_s", 0.0)
        if base_median < MIN_COMPARABLE_S or cur_median < MIN_COMPARABLE_S:
            continue
        if cur_median > threshold * base_median:
            regressions.append(
                Regression(
                    stage=name, baseline_s=base_median,
                    current_s=cur_median, threshold=threshold,
                )
            )
    return regressions


def render_report(
    results: list[StageResult], baseline: dict | None
) -> str:
    """Human summary table: stage, median, IQR, baseline ratio."""
    base_stages = (baseline or {}).get("stages", {})
    rows = []
    for r in results:
        base = base_stages.get(r.name, {}).get("median_s")
        if base and base >= MIN_COMPARABLE_S and r.median_s >= MIN_COMPARABLE_S:
            vs = f"{r.median_s / base:.2f}x"
        else:
            vs = "-"
        rows.append(
            (r.name, f"{r.median_s:.4f}", f"{r.iqr_s:.4f}", vs)
        )
    return render_table(["stage", "median s", "iqr s", "vs baseline"], rows)


def run_bench(
    out_dir: str | Path = ".",
    reps: int = 5,
    quick: bool = False,
    threshold: float = DEFAULT_THRESHOLD,
    stages: list[str] | None = None,
    compare: bool = True,
) -> tuple[Path, list[Regression], str]:
    """Full bench flow: time, snapshot, compare; returns the report.

    The returned regressions list is empty when the run is clean
    (including when there is no comparable baseline yet).
    """
    baseline_path = previous_snapshot(out_dir) if compare else None
    baseline = None
    if baseline_path is not None:
        try:
            baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            baseline = None  # corrupt baseline: record fresh, compare next time
    results = run_suite(reps=reps, quick=quick, stages=stages)
    payload = snapshot_payload(results, reps=reps, quick=quick)
    path = write_snapshot(payload, out_dir)
    regressions = (
        compare_snapshots(payload, baseline, threshold) if baseline else []
    )
    report_lines = [render_report(results, baseline), f"snapshot: {path}"]
    if baseline_path is not None and baseline is not None:
        report_lines.append(f"baseline: {baseline_path}")
    for regression in regressions:
        report_lines.append(f"REGRESSION {regression}")
    return path, regressions, "\n".join(report_lines)
