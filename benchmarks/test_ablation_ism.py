"""Ablation: Intimate Shared Memory (4 MB pages) on ECperf.

Section 3.2 / Section 6: enabling ISM raised ECperf throughput more
than 10%, because 8 KB pages give the 64-entry TLB only 512 KB of
reach against a heap of hundreds of MB.  This bench replays an ECperf
trace through the TLB at both page sizes and converts the miss-rate
difference into a CPI effect.
"""

from bench_support import BENCH_SIM

from repro.cpu import InOrderCpuModel, UltraSparcIIParams
from repro.figures.common import figure_trace, simulate_multiprocessor
from repro.harness.traceplane import TraceSpec
from repro.memsys.block import IFETCH
from repro.osmodel.ism import IsmSetting, tlb_for


def _measure() -> dict:
    bundle = figure_trace(TraceSpec.official("ecperf", 2, BENCH_SIM))
    out = {}
    for enabled in (False, True):
        tlb = tlb_for(IsmSetting(enabled=enabled))
        instructions = 0
        for trace in bundle.per_cpu:
            for ref in trace:
                if ref & 3 == IFETCH:
                    instructions += 8
                    continue
                tlb.access(ref >> 2)
        out["ism_on" if enabled else "ism_off"] = tlb.mpki(instructions)
    # CPI effect: run the cache hierarchy once, apply both TLB rates.
    hierarchy = simulate_multiprocessor(bundle, BENCH_SIM)
    for key in list(out):
        model = InOrderCpuModel(UltraSparcIIParams(tlb_mpki=out[key]))
        out[key + "_cpi"] = model.cpi_for_machine(hierarchy).total
    return out


def test_ablation_ism(benchmark):
    results = benchmark.pedantic(_measure, iterations=1, rounds=1)
    print()
    print(f"TLB misses/1000 instr: ISM off {results['ism_off']:.2f}, "
          f"ISM on {results['ism_on']:.3f}")
    speedup = results["ism_off_cpi"] / results["ism_on_cpi"]
    print(f"CPI {results['ism_off_cpi']:.2f} -> {results['ism_on_cpi']:.2f} "
          f"(ISM win: {100 * (speedup - 1):.1f}%)")
    assert results["ism_on"] < results["ism_off"] / 5
    # The paper reports >10% on the real 1.4 GB-heap system.  Our
    # measurement interval touches a far smaller page set, so the
    # absolute win is conservative; the direction and the order-of-
    # magnitude TLB-miss reduction are the reproducible facts.
    assert speedup > 1.01, "ISM should be a clear win"
