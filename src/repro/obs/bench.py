"""The ``jmmw bench`` ratio gates: every fast path against its reference.

Absolute times cannot be gated on a machine whose speed swings between
phases, but the ratio of two implementations timed in one process, in
alternation, can: both sides run through the same machine phases.
:data:`GATES` is the one table of such gates: the compiled miss-curve
sweep (>= 3x its scalar reference), the compiled coherence kernel
(>= 10x), trace generation with compiled code bursts (>= 1x the
Python reference), the trace plane (>= 1.5x regenerating per task),
the warm result cache (>= 4x a cold one, i.e. warm within 0.25x of
cold) and the load plane's compiled event loop (>= 9x its Python
reference), each at the input size its bound was measured at.

:func:`run_gate` times :data:`ROUNDS` rounds, the reference first in
every other round, requires equal results in every round, and gates
the median ratio (reference / fast seconds).  A gate whose fast side
cannot run here (:attr:`Gate.declines`) is ``skipped``: one round still
asserts parity, but a scalar-vs-scalar ratio neither passes nor fails.
The plane and result caches live in a temporary directory that
:func:`run_bench` removes; no snapshot is written.
``benchmarks/test_ratio_gates.py`` runs the same table.
"""

from __future__ import annotations

import os
import statistics
import tempfile
import time
from dataclasses import astuple, dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import Any, Callable

from repro import obs
from repro.core.config import SimConfig
from repro.core.report import render_table
from repro.errors import HarnessError

#: Rounds per gate; the reference runs first in every other round.
ROUNDS = 5

Side = Callable[[], Any]


@dataclass(frozen=True)
class Gate:
    """One fast path held to a speedup over its reference.

    ``setup(sim, workdir)`` builds the untimed inputs and returns the
    ``(fast, reference)`` calls; each returns the values that must
    compare equal.  ``refs`` sizes the gate's input: the references per
    CPU of its traces (the load plane's population for ``loadplane``);
    ``bound`` is the least median ratio.  ``declines()`` names why
    the fast side cannot run here, or returns None.
    """

    name: str
    setup: Callable[[SimConfig, Path], tuple[Side, Side]]
    bound: float
    refs: int
    declines: Callable[[], str | None] = lambda: None

    @property
    def sim(self) -> SimConfig:
        return SimConfig(seed=1234, refs_per_proc=self.refs, warmup_fraction=0.5)


@dataclass
class GateResult:
    """One gate's ratios (reference / fast seconds), one per round."""

    gate: Gate
    ratios: list[float] = field(default_factory=list)
    skipped: str | None = None
    differs: int | None = None  # first round whose results differed

    @property
    def status(self) -> str:
        if self.differs is not None:
            return f"FAIL: results differ in round {self.differs}"
        if self.skipped is not None:
            return f"skipped: {self.skipped}"
        return "ok" if statistics.median(self.ratios) >= self.gate.bound else "FAIL"


def run_gate(gate: Gate, workdir: Path, rounds: int = ROUNDS) -> GateResult:
    """Time ``gate``'s two sides in alternation; setup is untimed."""
    result = GateResult(gate, skipped=gate.declines())
    with obs.span(f"bench/{gate.name}/setup"):
        fast, reference = gate.setup(gate.sim, workdir)
    for round_ in range(1 if result.skipped is not None else rounds):
        sides = [("reference", reference), ("fast", fast)]
        if round_ % 2:
            sides.reverse()
        seconds, values = {}, {}
        for label, side in sides:
            with obs.span(f"bench/{gate.name}/{label}"):
                start = time.perf_counter()
                values[label] = side()
                seconds[label] = time.perf_counter() - start
        if values["fast"] != values["reference"]:
            result.differs = round_
            break
        if result.skipped is None:
            result.ratios.append(seconds["reference"] / seconds["fast"])
    return result


def run_bench(gates: tuple[Gate, ...] | None = None) -> list[GateResult]:
    """Every gate of ``gates`` (default :data:`GATES`), in a temporary directory."""
    with tempfile.TemporaryDirectory(prefix="jmmw-bench-") as tmp:
        return [run_gate(g, Path(tmp)) for g in (GATES if gates is None else gates)]


def render(results: list[GateResult]) -> str:
    """One row per gate: bound, median, min and max ratio, status."""
    rows = []
    for r in results:
        cells = ["-"] * 3
        if r.ratios:
            spread = (statistics.median(r.ratios), min(r.ratios), max(r.ratios))
            cells = [f"{x:.1f}x" for x in spread]
        rows.append([r.gate.name, f">= {r.gate.bound:g}x", *cells, r.status])
    return render_table(["gate", "bound", "median", "min", "max", "status"], rows)


def exit_code(results: list[GateResult]) -> int:
    """1 when results differ, else 3 when a median misses its bound, else 0."""
    if any(r.differs is not None for r in results):
        return 1
    return 3 if any(r.status == "FAIL" for r in results) else 0


# -- the gates --------------------------------------------------------------


def _values(outcomes) -> list:
    """Task values, in order; a failed task fails the bench loudly."""
    for outcome in outcomes:
        if not outcome.ok:
            raise HarnessError(f"bench task {outcome.key} failed: {outcome.failure}")
    return [outcome.value for outcome in outcomes]


def _miss_curve(sim: SimConfig, workdir: Path) -> tuple[Side, Side]:
    """Figures 12/13's nine data-side geometries over one SPECjbb trace:
    the compiled sweep vs the scalar simulators, equal points."""
    from repro.figures.fig12_icache import CACHE_SIZES
    from repro.harness.traceplane import TraceSpec
    from repro.memsys.multisim import simulate_miss_curve

    trace = TraceSpec("specjbb", 10, 1, sim).generate().per_cpu[0]

    def sweep(fastpath: bool) -> list:
        return simulate_miss_curve(
            trace, CACHE_SIZES, kind="data", warmup_fraction=0.5, fastpath=fastpath
        )

    return lambda: sweep(True), lambda: sweep(False)


def _sweep_declines() -> str | None:
    from repro.memsys.fastpath_coherence import kernel_available

    if not kernel_available():
        return "the compiled kernel is unavailable (no C compiler?)"
    return None


def _coherent(sim: SimConfig, workdir: Path) -> tuple[Side, Side]:
    """Figure 16's four sharing levels over one 8-CPU SPECjbb trace: the
    compiled kernel vs the scalar hierarchy, equal per-CPU stats, bus
    stats, per-cache stats and holders."""
    from repro.figures.fig16_sharedcache import N_PROCS, SHARING
    from repro.harness.traceplane import TraceSpec
    from repro.memsys.config import e6000_machine
    from repro.memsys.hierarchy import MemoryHierarchy

    traces = list(TraceSpec("specjbb", 8, N_PROCS, sim).generate().per_cpu)

    def replay(fastpath: bool) -> list:
        states = []
        for procs_per_l2 in SHARING:
            h = MemoryHierarchy(e6000_machine(N_PROCS).with_shared_l2(procs_per_l2))
            h.run_trace(
                traces, quantum=sim.interleave_quantum,
                warmup_fraction=0.5, fastpath=fastpath,
            )
            states.append((
                [vars(s) for s in h.proc_stats], vars(h.bus.stats),
                [vars(s) for s in h.bus.cache_stats], h.bus._holders,
            ))
        return states

    return lambda: replay(True), lambda: replay(False)


def _kernel_declines() -> str | None:
    from repro.memsys.fastpath_coherence import kernel_available
    from repro.memsys.invariants import CHECK_ENV, checking_enabled

    if checking_enabled():
        return f"{CHECK_ENV}=1 attaches an invariant checker; kernel never asked"
    if not kernel_available():
        return "the coherence kernel is unavailable (no C compiler?)"
    return None


def _as_reference(call: Side) -> Side:
    """``call`` run with ``JMMW_FASTPATH=0``: every fast path asked
    during it runs its Python reference."""
    from repro.memsys.fastpath import FASTPATH_ENV

    def reference():
        previous = os.environ.get(FASTPATH_ENV)
        os.environ[FASTPATH_ENV] = "0"
        try:
            return call()
        finally:
            if previous is None:
                del os.environ[FASTPATH_ENV]
            else:
                os.environ[FASTPATH_ENV] = previous

    return reference


def _generation(sim: SimConfig, workdir: Path) -> tuple[Side, Side]:
    """One 8-CPU SPECjbb trace generated with code bursts in the
    compiled step vs in the Python reference (``JMMW_FASTPATH=0`` for
    the call), equal per-CPU streams, instruction counts and final
    generator states."""
    from repro.figures.common import make_workload
    from repro.rng import RngFactory

    class Recording(RngFactory):
        """Hands out streams as usual and keeps them for their state."""

        def __init__(self, seed: int) -> None:
            super().__init__(seed)
            self.streams = []

        def stream(self, name: str):
            rng = super().stream(name)
            self.streams.append(rng)
            return rng

    def generate() -> tuple:
        factory = Recording(sim.seed)
        bundle = make_workload("specjbb", scale=8).generate(8, sim, factory)
        return (
            [t.tobytes() for t in bundle.per_cpu],
            bundle.instructions,
            [rng.bit_generator.state for rng in factory.streams],
        )

    return generate, _as_reference(generate)


def _loadplane(sim: SimConfig, workdir: Path) -> tuple[Side, Side]:
    """One saturation-campaign point (ECperf mix, ``refs`` users, six
    1 s windows) with its events in the compiled step vs in the Python
    loop (``JMMW_FASTPATH=0`` for the call), equal windows, histograms,
    stable aggregate and pool counters."""
    from repro.loadplane import LoadPlaneConfig, simulate_loadplane

    config = LoadPlaneConfig(
        n_users=sim.refs_per_proc, workload="ecperf", windows=6, window_s=1.0
    )

    def run() -> tuple:
        result = simulate_loadplane(config, check_identities=False)
        windows = [
            (*astuple(replace(w, hist=None)), w.hist.counts.tobytes(),
             w.hist.total, w.hist.sum_s)
            for w in result.windows
        ]
        return windows, replace(result, windows=())

    return run, _as_reference(run)


def _npyrandom_declines(step: str) -> str | None:
    """Why the compiled ``step`` (``burst`` or ``events``), which draws
    through numpy's samplers, cannot run here, or None."""
    from repro.memsys.fastpath import FASTPATH_ENV, fastpath_enabled
    from repro.memsys.fastpath_coherence import npyrandom_step_declines

    if not fastpath_enabled():
        return f"{FASTPATH_ENV}=0 switches the compiled {step} step off"
    reason = npyrandom_step_declines()
    if reason is not None:
        return f"the {step} step runs in Python here ({reason})"
    return None


def _plane(sim: SimConfig, workdir: Path) -> tuple[Side, Side]:
    """Figure 12's instruction-side sweep, one task per size on two
    workers: the trace generated once and shared through the plane
    (publishing timed) vs regenerated in every task, equal points."""
    from repro.figures.fig12_icache import CACHE_SIZES
    from repro.harness.runner import run_tasks
    from repro.harness.tasks import build_miss_curve_sweep_tasks
    from repro.harness.traceplane import TracePlane, TraceSpec

    spec = TraceSpec("specjbb", 8, 1, sim)

    def sweep(plane: TracePlane | None) -> list:
        tasks = build_miss_curve_sweep_tasks(spec, CACHE_SIZES, "instr", plane=plane)
        return _values(run_tasks(tasks, jobs=2, plane=plane))

    def shared() -> list:
        with TracePlane(root=workdir / "traceplane") as plane:
            return sweep(plane)

    return shared, lambda: sweep(None)


#: The warm-cache gate's figures: one that replays traces, one analytic.
CACHED_FIGURES = ["fig04_scaling", "fig11_memory_use"]


def _warm_cache(sim: SimConfig, workdir: Path) -> tuple[Side, Side]:
    """Figures 4 and 11 served from a primed result cache vs computed
    into an empty one, equal rendered reports and check verdicts."""
    from repro.figures.common import figure_checks
    from repro.harness import ResultCache, run_tasks
    from repro.harness.tasks import build_figure_tasks

    def run(cache: ResultCache) -> list:
        outcomes = run_tasks(build_figure_tasks(CACHED_FIGURES, sim), cache=cache)
        return [
            (value.render(), figure_checks(name, value))
            for name, value in zip(CACHED_FIGURES, _values(outcomes))
        ]

    warm = ResultCache(workdir / "warm")
    run(warm)
    return lambda: run(warm), lambda: run(ResultCache(tempfile.mkdtemp(dir=workdir)))


GATES: tuple[Gate, ...] = (
    Gate("miss-curve", _miss_curve, bound=3.0, refs=250_000, declines=_sweep_declines),
    Gate("coherent", _coherent, bound=10.0, refs=250_000, declines=_kernel_declines),
    # Measured 1.9-2.1x (median of three runs); the bound is about half.
    Gate("generation", _generation, bound=1.0, refs=60_000,
         declines=partial(_npyrandom_declines, "burst")),
    # Sized like the smallest trace `jmmw figures` shares (QUICK_SIM's
    # 60k refs per CPU): at 25k, cheap regeneration left single rounds
    # near the bound.
    Gate("plane", _plane, bound=1.5, refs=60_000),
    Gate("warm-cache", _warm_cache, bound=4.0, refs=25_000),
    # ``refs`` is the population here.  Measured 18.6-20.5x (median of
    # three runs); the bound is about half.
    Gate("loadplane", _loadplane, bound=9.0, refs=10_000,
         declines=partial(_npyrandom_declines, "events")),
)
