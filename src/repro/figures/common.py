"""Shared scaffolding for the figure drivers.

Every figure module defines ``run(sim)``, ``checks(result)`` and
``trace_specs(sim)``: the :class:`~repro.harness.traceplane.TraceSpec`
list its ``run`` iterates, fetching each trace through
:func:`figure_trace` (Figure 11, analytic, declares none).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro import obs as _obs
from repro.core.config import SimConfig, e6000_machine
from repro.core.report import render_table
from repro.errors import ConfigError
from repro.harness.traceplane import TraceSpec, resolve
from repro.memsys.hierarchy import MemoryHierarchy
from repro.rng import RngFactory
from repro.workloads.base import TraceBundle, os_background_trace
from repro.workloads.ecperf import EcperfWorkload
from repro.workloads.specjbb import SpecJbbWorkload
from repro.workloads import layout

#: Processor counts the paper sweeps in Figures 4-9.
PAPER_PROC_SWEEP = [1, 2, 4, 6, 8, 10, 12, 14, 15]

#: The workloads the processor-count figures sweep, in row order.
WORKLOADS = ("ecperf", "specjbb")

#: Processor counts whose simulated CPI anchors the throughput model.
ANCHOR_PROCS = (1, 2, 4, 8, 14)

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


def figure_trace(spec: TraceSpec) -> TraceBundle:
    """The trace ``spec`` names: the one way figure code gets a trace.

    A zero-copy view of the plane's segment when the running task
    carries a ref for ``spec``; otherwise generated here, bit-identically.
    """
    bundle = resolve(spec)
    return bundle if bundle is not None else spec.generate()


def sweep_specs(
    sim: SimConfig, procs: Sequence[int], workloads: Sequence[str] = WORKLOADS
) -> list[TraceSpec]:
    """The official-run trace of each workload at each processor count."""
    return [TraceSpec.official(name, p, sim) for name in workloads for p in procs]


def os_processor_trace(n_procs: int, sim: SimConfig) -> list[int]:
    """The OS stream of one processor outside an ``n_procs`` processor set.

    It touches network buffers and the application processors' run
    queues — why the paper sees copybacks even on "1-processor" runs
    (Section 4.3).
    """
    shared = [layout.NET_BUFFER_POOL + i * 256 for i in range(16)]
    shared += [layout.RUNQUEUE_BASE + cpu * 64 for cpu in range(n_procs)]
    rng = RngFactory(seed=sim.seed).stream("os-background")
    return os_background_trace(rng, max(1, sim.refs_per_proc // 10), shared)


def simulate_multiprocessor(
    bundle: TraceBundle,
    sim: SimConfig,
    *,
    include_os_processor: bool = False,
    procs_per_l2: int = 1,
    protocol: str = "mosi",
) -> MemoryHierarchy:
    """Replay ``bundle`` through an E6000-style machine.

    One processor per stream in the bundle, plus, with
    ``include_os_processor``, one running :func:`os_processor_trace`.
    The bundle is replayed as given, so a caller that runs one trace
    on several machines fetches it once.
    """
    traces = list(bundle.per_cpu)
    if include_os_processor:
        traces.append(os_processor_trace(bundle.n_procs, sim))
    total_procs = len(traces)
    machine = e6000_machine(total_procs).with_shared_l2(procs_per_l2)
    if total_procs % procs_per_l2 != 0:
        machine = e6000_machine(total_procs)  # fall back to private L2s
    hierarchy = MemoryHierarchy(machine, protocol=protocol)
    hierarchy.run_trace(traces, quantum=sim.interleave_quantum, warmup_fraction=0.5)
    return hierarchy


def anchor_specs(sim: SimConfig) -> list[TraceSpec]:
    """The traces behind the measured CPI anchors (Figures 4, 5, 9)."""
    return sweep_specs(sim, ANCHOR_PROCS)


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
    anchor_procs: Sequence[int] = ANCHOR_PROCS,
) -> Callable[[int], float]:
    """CPI(p) from memory-hierarchy simulations, interpolated.

    Replays the workload's traces at the anchor processor counts (by
    default its :func:`anchor_specs`) and returns a piecewise-linear
    interpolant — the measured input the throughput model composes for
    Figures 4, 5 and 9.  Nothing is memoized: every call replays its
    anchors at exactly the ``sim`` it is given.
    """
    from repro.cpu import InOrderCpuModel

    model = InOrderCpuModel()
    anchors = {
        spec.n_procs: model.cpi_for_machine(
            simulate_multiprocessor(figure_trace(spec), sim)
        ).total
        for spec in sweep_specs(sim, anchor_procs, (workload_name,))
    }

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
