"""Shared scaffolding for the figure drivers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro import obs as _obs
from repro.core.config import SimConfig, e6000_machine
from repro.core.report import render_table
from repro.errors import ConfigError
from repro.memsys.hierarchy import MemoryHierarchy
from repro.rng import RngFactory
from repro.workloads.base import TraceBundle, os_background_trace
from repro.workloads.ecperf import EcperfWorkload
from repro.workloads.specjbb import SpecJbbWorkload
from repro.workloads import layout

#: Processor counts the paper sweeps in Figures 4-9.
PAPER_PROC_SWEEP = [1, 2, 4, 6, 8, 10, 12, 14, 15]

#: Default simulation effort for figure reproduction (per processor).
FIGURE_SIM = SimConfig(seed=1234, refs_per_proc=250_000, warmup_fraction=0.5)

#: Reduced effort for smoke tests.
QUICK_SIM = SimConfig(seed=1234, refs_per_proc=60_000, warmup_fraction=0.5)


@dataclass
class FigureResult:
    """A reproduced figure: labeled rows plus the paper's claim."""

    figure_id: str
    title: str
    columns: list[str]
    rows: list[tuple]
    paper_claim: str
    notes: str = ""
    series: dict = field(default_factory=dict)

    def render(self) -> str:
        parts = [
            f"=== {self.figure_id}: {self.title} ===",
            f"paper: {self.paper_claim}",
            render_table(self.columns, self.rows),
        ]
        if self.notes:
            parts.append(f"note: {self.notes}")
        return "\n".join(parts)


def run_figure(
    module_name: str, sim: SimConfig, plane_refs: dict | None = None
) -> FigureResult:
    """Run one figure driver by module name (``"fig04_scaling"``).

    Module-level and argument-closed, so it pickles cleanly: this is
    the function the harness ships to worker processes when ``jmmw
    figures --jobs N`` fans figures out in parallel.

    ``plane_refs`` (spec key -> :class:`~repro.harness.traceplane.TraceRef`)
    are installed for the duration of the run: figure code that fetches
    traces through :func:`figure_trace` attaches to the published
    shared-memory segments instead of regenerating.  Results are
    bit-identical with or without refs.
    """
    import importlib

    from repro.harness import traceplane

    module = importlib.import_module(f"repro.figures.{module_name}")
    with _obs.span("figure/run", module=module_name, refs=sim.refs_per_proc):
        with traceplane.use_refs(plane_refs):
            return module.run(sim)


def figure_checks(module_name: str, result: FigureResult) -> list[tuple[str, bool]]:
    """Evaluate a figure module's shape checks against ``result``.

    Runs in the parent process (checks are cheap); cached figure
    results are re-checked on every invocation so a stale cache can
    never hide a failing claim.
    """
    import importlib

    module = importlib.import_module(f"repro.figures.{module_name}")
    return module.checks(result)


def make_workload(name: str, scale: int | None = None):
    """Instantiate a workload by name at an optional scale factor."""
    if name == "specjbb":
        return SpecJbbWorkload(warehouses=scale if scale is not None else 8)
    if name == "ecperf":
        return EcperfWorkload(injection_rate=scale if scale is not None else 8)
    raise ConfigError(f"unknown workload {name!r}")


def workload_for_procs(name: str, n_procs: int):
    """The configuration an official run would use at ``n_procs``.

    SPECjbb's optimal warehouse count tracks the processor count (one
    thread per warehouse); ECperf's injection rate is tuned to keep
    the middle tier saturated but its footprint barely moves.
    """
    if name == "specjbb":
        return SpecJbbWorkload(warehouses=max(1, n_procs))
    if name == "ecperf":
        return EcperfWorkload(injection_rate=max(1, n_procs))
    raise ConfigError(f"unknown workload {name!r}")


def figure_trace(name: str, scale: int | None, n_procs: int, sim: SimConfig):
    """One workload trace, from the trace plane when one is attached.

    The shared-memory fast path for sweep figures: when the running
    task carries a :class:`~repro.harness.traceplane.TraceRef` for
    this exact (workload, scale, n_procs, sim) spec — published by the
    campaign's :class:`~repro.harness.traceplane.TracePlane` — the
    bundle is a zero-copy view of the shared segment.  Otherwise it is
    generated locally, from the same stateless RNG streams, producing
    a bit-identical bundle.
    """
    from repro.harness.traceplane import TraceSpec, resolve

    spec = TraceSpec(workload=name, scale=scale, n_procs=n_procs, sim=sim)
    bundle = resolve(spec)
    if bundle is not None:
        return bundle
    return spec.generate()


def figure_trace_chunks(name: str, scale: int | None, n_procs: int, sim: SimConfig):
    """One workload trace as a chunked :class:`TraceStream`.

    The streaming counterpart of :func:`figure_trace`: plane-resolved
    bundles are sliced into chunk views (zero-copy over the shared
    segment); otherwise chunks are generated lazily from the same
    stateless RNG streams.  Either way the concatenated chunks are
    bit-identical to the materialized bundle.
    """
    from repro.harness.traceplane import TraceSpec, resolve
    from repro.memsys.stream import TraceStream
    from repro.rng import RngFactory

    spec = TraceSpec(workload=name, scale=scale, n_procs=n_procs, sim=sim)
    bundle = resolve(spec)
    if bundle is not None:
        return TraceStream.from_bundle(bundle)
    workload = make_workload(name, scale=scale)
    return TraceStream.from_workload(workload, n_procs, sim, RngFactory(seed=sim.seed))


def simulate_multiprocessor(
    workload,
    n_procs: int,
    sim: SimConfig,
    include_os_processor: bool = False,
    procs_per_l2: int = 1,
    protocol: str = "mosi",
    bundle: TraceBundle | None = None,
) -> MemoryHierarchy:
    """Generate traces and run them through an E6000-style machine.

    With ``include_os_processor`` an extra processor outside the
    processor set runs a light OS stream touching some shared kernel
    lines — the reason the paper sees snoop copybacks even on
    "1-processor" runs (Section 4.3).

    ``bundle`` short-circuits trace generation with an
    already-materialized bundle for exactly this (workload, n_procs,
    sim) — the generate-once path Figure 16 uses to replay one trace
    against several cache-sharing levels.  The caller guarantees the
    bundle is what ``workload.generate(n_procs, sim, ...)`` would have
    produced; generation is deterministic, so a plane-published bundle
    satisfies this by construction.
    """
    rng_factory = RngFactory(seed=sim.seed)
    if bundle is None:
        with _obs.span(
            "workload/trace-gen", workload=type(workload).__name__, procs=n_procs
        ):
            bundle = workload.generate(n_procs, sim, rng_factory)
    traces = list(bundle.per_cpu)
    total_procs = n_procs
    if include_os_processor:
        total_procs += 1
        os_rng = rng_factory.stream("os-background")
        shared = [layout.NET_BUFFER_POOL + i * 256 for i in range(16)]
        shared += [layout.RUNQUEUE_BASE + cpu * 64 for cpu in range(n_procs)]
        traces.append(
            os_background_trace(os_rng, max(1, sim.refs_per_proc // 10), shared)
        )
    machine = e6000_machine(total_procs).with_shared_l2(procs_per_l2)
    if total_procs % procs_per_l2 != 0:
        machine = e6000_machine(total_procs)  # fall back to private L2s
    hierarchy = MemoryHierarchy(machine, protocol=protocol)
    hierarchy.run_trace(traces, quantum=sim.interleave_quantum, warmup_fraction=0.5)
    return hierarchy


#: Memo for measured CPI anchor sets, keyed by (workload, refs, seed).
_CPI_ANCHOR_CACHE: dict[tuple, dict[int, float]] = {}


def throughput_model(workload_name: str, sim: SimConfig):
    """A ThroughputModel fed by measured CPI curves (Figures 4, 5, 9)."""
    from repro.perfmodel import ThroughputModel, WorkloadScalingParams

    params = (
        WorkloadScalingParams.specjbb_default()
        if workload_name == "specjbb"
        else WorkloadScalingParams.ecperf_default()
    )
    return ThroughputModel(params, measured_cpi_fn(workload_name, sim))


def measured_cpi_fn(
    workload_name: str,
    sim: SimConfig,
    anchor_procs: Sequence[int] = (1, 2, 4, 8, 14),
) -> Callable[[int], float]:
    """CPI(p) from memory-hierarchy simulations, interpolated.

    Simulates the workload at the anchor processor counts and returns
    a piecewise-linear interpolant — the measured input the throughput
    model composes for Figures 4, 5 and 9.
    """
    from repro.cpu import InOrderCpuModel

    key = (workload_name, sim.refs_per_proc, sim.seed, tuple(anchor_procs))
    if key in _CPI_ANCHOR_CACHE:
        anchors = _CPI_ANCHOR_CACHE[key]
    else:
        model = InOrderCpuModel()
        anchors = {}
        for p in anchor_procs:
            workload = workload_for_procs(workload_name, p)
            hierarchy = simulate_multiprocessor(workload, p, sim)
            anchors[p] = model.cpi_for_machine(hierarchy).total
        _CPI_ANCHOR_CACHE[key] = anchors

    xs = sorted(anchors)

    def cpi(p: int) -> float:
        if p <= xs[0]:
            return anchors[xs[0]]
        if p >= xs[-1]:
            return anchors[xs[-1]]
        for lo, hi in zip(xs, xs[1:]):
            if lo <= p <= hi:
                t = (p - lo) / (hi - lo)
                return anchors[lo] * (1 - t) + anchors[hi] * t
        raise ConfigError(f"unreachable: p={p}")  # pragma: no cover

    return cpi
