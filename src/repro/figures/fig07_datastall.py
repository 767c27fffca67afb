"""Figure 7: data-stall time decomposition vs. processor count.

Paper: roughly 60% of data stall time is L2 misses (cache-to-cache +
memory), with cache-to-cache transfers reaching ~50% of total data
stall on larger systems; store-buffer stalls are only 1-2% of
execution time and read-after-write hazards ~1%.
"""

from __future__ import annotations

from repro.core.config import SimConfig
from repro.cpu import InOrderCpuModel
from repro.figures.common import (
    FIGURE_SIM,
    FigureResult,
    figure_trace,
    simulate_multiprocessor,
    sweep_specs,
)

DATASTALL_SWEEP = [1, 2, 4, 8, 12, 15]


def trace_specs(sim: SimConfig, sweep: list[int] | None = None):
    """One official-run trace per workload and processor count."""
    return sweep_specs(sim, sweep if sweep is not None else DATASTALL_SWEEP)


def run(sim: SimConfig | None = None, sweep: list[int] | None = None) -> FigureResult:
    """Reproduce Figure 7."""
    sim = sim if sim is not None else FIGURE_SIM
    model = InOrderCpuModel()
    rows = []
    series: dict[str, list[tuple[float, float]]] = {}
    for spec in trace_specs(sim, sweep):
        hierarchy = simulate_multiprocessor(figure_trace(spec), sim)
        cpi = model.cpi_for_machine(hierarchy)
        fr = cpi.data_stall.fractions()
        rows.append(
            (
                spec.workload,
                spec.n_procs,
                fr["store_buffer"],
                fr["raw_hazard"],
                fr["l2_hit"],
                fr["cache_to_cache"],
                fr["memory"],
                cpi.data_stall.store_buffer / cpi.total,
            )
        )
        series.setdefault(f"{spec.workload}.c2c_share", []).append(
            (spec.n_procs, fr["cache_to_cache"])
        )
    return FigureResult(
        figure_id="fig07",
        title="Data stall decomposition vs processors",
        columns=[
            "workload",
            "procs",
            "store buf",
            "RAW",
            "L2 hit",
            "C2C",
            "memory",
            "sb/exec",
        ],
        rows=rows,
        paper_claim=(
            "~60% of data stall from L2 misses; C2C ~50% of data stall on "
            "large systems; store buffer 1-2% of execution; RAW ~1%"
        ),
        series=series,
    )


def checks(result: FigureResult) -> list[tuple[str, bool]]:
    """Shape assertions against the paper's claims."""

    def row(name, p):
        for r in result.rows:
            if r[0] == name and r[1] == p:
                return r
        raise KeyError((name, p))

    out = []
    for name in ("ecperf", "specjbb"):
        r15 = row(name, 15)
        r1 = row(name, 1)
        l2_miss_share = r15[5] + r15[6]
        out.append((f"{name}: L2 misses dominate data stall @15p", l2_miss_share > 0.5))
        out.append((f"{name}: C2C large at 15p (>30%)", r15[5] > 0.30))
        out.append((f"{name}: C2C grows 1p->15p", r15[5] > r1[5]))
        out.append((f"{name}: store buffer <6% of execution", r15[7] < 0.06))
        out.append((f"{name}: RAW small (<5% of stall)", r15[3] < 0.05))
    return out
