"""Figure 12: instruction-cache miss rate vs. cache size.

Paper: 4-way set-associative split caches with 64-byte blocks, sizes
64 KB to 16 MB, uniprocessor.  ECperf's much larger instruction
working set gives it a far higher miss rate at intermediate sizes
(e.g. 256 KB); both workloads fall well below one miss per 1000
instructions at 1 MB and beyond.
"""

from __future__ import annotations

from repro.analysis.curves import MissCurve
from repro.core.config import SimConfig
from repro.figures.common import FIGURE_SIM, FigureResult, figure_trace
from repro.harness.traceplane import TraceSpec
from repro.memsys.stream import TraceStream, simulate_miss_curve_stream
from repro.units import kb, mb

#: The paper's x axis (Figures 12/13).
CACHE_SIZES = [kb(64), kb(128), kb(256), kb(512), mb(1), mb(2), mb(4), mb(8), mb(16)]

#: Workload configurations plotted in the paper.
CONFIGS = [
    ("ecperf", "ecperf", 8),
    ("specjbb-25", "specjbb", 25),
    ("specjbb-10", "specjbb", 10),
    ("specjbb-1", "specjbb", 1),
]


def _sweep_sim(sim: SimConfig, scale: int) -> SimConfig:
    """The per-configuration SimConfig for one sweep trace.

    Larger scale factors need longer traces: the pre-warm sweep must
    fit inside the warmup window and the measurement window must visit
    every warehouse enough to reach steady state.
    """
    return sim.with_refs(max(sim.refs_per_proc, scale * 24_000))


def trace_specs(sim: SimConfig):
    """The traces this figure replays (shared with Figure 13).

    The instruction *and* data sweeps over a configuration replay the
    same single-CPU trace, so ``jmmw figures fig12 fig13`` publishes
    each once.
    """
    return [
        TraceSpec(workload=name, scale=scale, n_procs=1, sim=_sweep_sim(sim, scale))
        for _label, name, scale in CONFIGS
    ]


def curves(
    sim: SimConfig, kind: str, fastpath: bool | None = None
) -> dict[str, MissCurve]:
    """Miss curves for every configuration, one trace each.

    Each trace is replayed chunk by chunk through
    :func:`repro.memsys.stream.simulate_miss_curve_stream`;
    ``fastpath`` is forwarded to it, and both replay paths produce
    bit-identical curves.
    """
    out = {}
    for (label, _name, _scale), spec in zip(CONFIGS, trace_specs(sim)):
        stream = TraceStream.from_bundle(figure_trace(spec))
        points = simulate_miss_curve_stream(
            stream.chunks_merged(),
            stream.total_refs,
            CACHE_SIZES,
            kind=kind,
            assoc=4,
            block=64,
            warmup_fraction=spec.sim.warmup_fraction,
            fastpath=fastpath,
        )
        out[label] = MissCurve.from_points(label, points)
    return out


def run(sim: SimConfig | None = None, fastpath: bool | None = None) -> FigureResult:
    """Reproduce Figure 12 (instruction side)."""
    sim = sim if sim is not None else FIGURE_SIM
    by_label = curves(sim, kind="instr", fastpath=fastpath)
    rows = []
    series = {}
    for label, curve in by_label.items():
        for point in curve.points:
            rows.append((label, point.size // 1024, point.mpki))
        series[label] = [(p.size, p.mpki) for p in curve.points]
    return FigureResult(
        figure_id="fig12",
        title="Instruction cache miss rate vs size (uniprocessor, 4-way, 64 B)",
        columns=["workload", "size KB", "misses/1000 instr"],
        rows=rows,
        paper_claim=(
            "ECperf much higher at intermediate sizes (256 KB); both below "
            "~1 MPKI at >= 1 MB"
        ),
        series=series,
    )


def checks(result: FigureResult) -> list[tuple[str, bool]]:
    """Shape assertions against the paper's claims."""

    def mpki(label, size_kb):
        for row in result.rows:
            if row[0] == label and row[1] == size_kb:
                return row[2]
        raise KeyError((label, size_kb))

    return [
        ("ecperf >> specjbb at 256 KB",
         mpki("ecperf", 256) > 3 * mpki("specjbb-25", 256)),
        ("ecperf modest at 64 KB vs its 256 KB gap",
         mpki("ecperf", 64) > mpki("ecperf", 256)),
        ("both small at 4 MB (< 1.5 MPKI)",
         mpki("ecperf", 4096) < 1.5 and mpki("specjbb-25", 4096) < 1.5),
        ("specjbb instruction footprint insensitive to warehouses",
         abs(mpki("specjbb-25", 256) - mpki("specjbb-1", 256)) < 1.0),
    ]
