"""High-level characterization API.

One call reproduces the paper's core per-workload measurements —
miss rates, cache-to-cache behavior, CPI breakdown — for a given
machine size, without the caller touching the simulator plumbing.
Used by the CLI and the quickstart example.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import SimConfig
from repro.core.metrics import CpiBreakdown
from repro.core.report import render_table
from repro.cpu import InOrderCpuModel


@dataclass(frozen=True)
class CharacterizationReport:
    """The headline numbers for one workload at one machine size."""

    workload: str
    n_procs: int
    l1i_mpki: float
    l1d_mpki: float
    l2_data_mpki: float
    c2c_ratio: float
    hottest_line_share: float
    cpi: CpiBreakdown
    code_footprint_kb: float
    live_memory_mb: float

    def render(self) -> str:
        rows = [
            ("L1I misses / 1000 instr", self.l1i_mpki),
            ("L1D misses / 1000 instr", self.l1d_mpki),
            ("L2 data misses / 1000 instr", self.l2_data_mpki),
            ("cache-to-cache miss fraction", self.c2c_ratio),
            ("hottest line's share of C2C", self.hottest_line_share),
            ("CPI (total)", self.cpi.total),
            ("  instruction stall", self.cpi.instruction_stall),
            ("  data stall", self.cpi.data_stall.total),
            ("  other", self.cpi.other),
            ("hot code footprint (KB)", self.code_footprint_kb),
            ("live heap (MB)", self.live_memory_mb),
        ]
        header = f"{self.workload} on {self.n_procs} processors (E6000-style)"
        return header + "\n" + render_table(["metric", "value"], rows)


def characterize(
    workload_name: str, n_procs: int = 8, sim: SimConfig | None = None
) -> CharacterizationReport:
    """Measure one workload on an ``n_procs`` E6000-style machine."""
    from repro.figures.common import (
        FIGURE_SIM,
        figure_trace,
        make_workload,
        simulate_multiprocessor,
    )
    from repro.harness.traceplane import TraceSpec

    sim = sim if sim is not None else FIGURE_SIM
    spec = TraceSpec.official(workload_name, n_procs, sim)
    workload = make_workload(spec.workload, spec.scale)
    hierarchy = simulate_multiprocessor(figure_trace(spec), sim)
    stats = hierarchy.proc_stats
    instructions = hierarchy.total_instructions
    cpi = InOrderCpuModel().cpi_for_machine(hierarchy)
    c2c_by_line = hierarchy.bus.stats.c2c_by_line
    total_c2c = sum(c2c_by_line.values())
    hottest = max(c2c_by_line.values()) / total_c2c if total_c2c else 0.0
    return CharacterizationReport(
        workload=workload_name,
        n_procs=n_procs,
        l1i_mpki=1000.0 * sum(s.l1i_misses for s in stats) / instructions,
        l1d_mpki=1000.0 * sum(s.l1d_misses for s in stats) / instructions,
        l2_data_mpki=hierarchy.data_mpki(),
        c2c_ratio=hierarchy.c2c_ratio(),
        hottest_line_share=hottest,
        cpi=cpi,
        code_footprint_kb=workload.code.total_code_bytes / 1024,
        live_memory_mb=workload.live_memory_mb(max(1, n_procs)),
    )


def quick_characterization(workload_name: str, n_procs: int = 4, **kwargs) -> str:
    """Rendered characterization at reduced simulation effort."""
    sim = SimConfig(seed=1234, refs_per_proc=80_000, warmup_fraction=0.5)
    if "warehouses" in kwargs:
        n_procs = min(n_procs, kwargs["warehouses"])
    return characterize(workload_name, n_procs=n_procs, sim=sim).render()
