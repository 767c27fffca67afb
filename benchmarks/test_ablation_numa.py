"""Ablation: C2C latency penalty, snooping bus vs NUMA directory.

Section 4.3: on the E6000 a cache-to-cache transfer is ~40% slower
than memory; on directory-based NUMA machines the indirection makes
it 200-300% slower.  Because these workloads satisfy over half their
misses cache-to-cache at scale, the C2C penalty dominates their NUMA
behavior — the paper's argument for why OLTP-like workloads are
"particularly sensitive to cache-to-cache transfer latency".
"""

from bench_support import BENCH_SIM

from repro.cpu import InOrderCpuModel, UltraSparcIIParams
from repro.figures.common import figure_trace, simulate_multiprocessor
from repro.harness.traceplane import TraceSpec
from repro.memsys.latency import E6000_LATENCIES, numa

N_PROCS = 8


def _measure() -> dict:
    out = {}
    for name in ("ecperf", "specjbb"):
        bundle = figure_trace(TraceSpec.official(name, N_PROCS, BENCH_SIM))
        hierarchy = simulate_multiprocessor(bundle, BENCH_SIM)
        row = {}
        for label, book in (("e6000", E6000_LATENCIES), ("numa", numa(2.5))):
            model = InOrderCpuModel(UltraSparcIIParams(latencies=book))
            row[label] = model.cpi_for_machine(hierarchy).total
        row["c2c_ratio"] = hierarchy.c2c_ratio()
        out[name] = row
    return out


def test_ablation_numa_penalty(benchmark):
    results = benchmark.pedantic(_measure, iterations=1, rounds=1)
    print()
    print("workload  c2c_ratio  CPI(e6000)  CPI(numa 2.5x)  slowdown")
    for name, row in results.items():
        slowdown = row["numa"] / row["e6000"]
        print(
            f"{name:8}  {row['c2c_ratio']:9.2f}  {row['e6000']:10.2f}  "
            f"{row['numa']:14.2f}  {slowdown:8.2f}x"
        )
        assert slowdown > 1.05, "C2C-heavy workloads must feel the indirection"
