"""Ablation: MOSI vs MSI vs MESI coherence (DESIGN.md decision 2).

MOSI's OWNED state lets the last writer keep supplying readers; MSI
hands ownership back to memory after one copyback; MESI's EXCLUSIVE
state turns private read-then-write sequences (freshly allocated
objects) into silent upgrades.  On ECperf's read-shared beans MSI
shows fewer copybacks and extra writebacks; on SPECjbb's migratory
locks MOSI and MSI tie — which is itself the interesting result.
"""

from bench_support import BENCH_SIM

from repro.figures.common import figure_trace, simulate_multiprocessor
from repro.harness.traceplane import TraceSpec

N_PROCS = 8


def _measure(protocol: str) -> dict:
    out = {}
    for name in ("ecperf", "specjbb"):
        bundle = figure_trace(TraceSpec.official(name, N_PROCS, BENCH_SIM))
        hierarchy = simulate_multiprocessor(bundle, BENCH_SIM, protocol=protocol)
        out[name] = {
            "c2c": hierarchy.total_c2c_fills,
            "writebacks": hierarchy.bus.stats.writebacks,
            "c2c_ratio": hierarchy.c2c_ratio(),
            "upgrades": hierarchy.bus.stats.upgrades,
            "silent": hierarchy.bus.stats.silent_upgrades,
        }
    return out


def test_ablation_mosi_vs_msi(benchmark):
    results = benchmark.pedantic(
        lambda: {p: _measure(p) for p in ("mosi", "msi", "mesi")},
        iterations=1,
        rounds=1,
    )
    print()
    print("protocol  workload  c2c_fills  writebacks  upgrades  silent  c2c_ratio")
    for protocol, by_wl in results.items():
        for name, stats in by_wl.items():
            print(
                f"{protocol:8}  {name:8}  {stats['c2c']:9d}  "
                f"{stats['writebacks']:10d}  {stats['upgrades']:8d}  "
                f"{stats['silent']:6d}  {stats['c2c_ratio']:.2f}"
            )
    # MSI pays writebacks on every read-supply.
    assert results["msi"]["ecperf"]["writebacks"] > results["mosi"]["ecperf"]["writebacks"]
    # MOSI supplies at least as often on the read-shared workload.
    assert results["mosi"]["ecperf"]["c2c"] >= results["msi"]["ecperf"]["c2c"]
    # MESI converts a chunk of bus upgrades into silent ones.
    for name in ("ecperf", "specjbb"):
        assert results["mesi"][name]["silent"] > 0
        assert results["mesi"][name]["upgrades"] < results["mosi"][name]["upgrades"]
