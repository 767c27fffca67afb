"""Future-work study: do the conclusions carry to newer hardware?

Section 7: "Further study is needed to determine how well these
results apply to ... different versions of the underlying hardware and
software."  Two what-ifs:

1. **Next-generation machine** (UltraSPARC-III-class: 900 MHz, 8 MB
   L2, memory relatively slower in cycles).  Capacity misses shrink
   with the big L2, so the *sharing* misses — which no capacity fixes
   — take over the miss mix: the paper's C2C story gets stronger, not
   weaker, with hardware generations.
2. **Parallel garbage collection**.  The measured JVM's collector is
   single-threaded; dividing collector demand across threads shows how
   much of the (modest) GC cost a parallel collector recovers.
"""

from bench_support import BENCH_SIM

from repro.core.config import e6000_machine, next_generation_machine
from repro.cpu import InOrderCpuModel, UltraSparcIIParams
from repro.figures.common import figure_trace, measured_cpi_fn
from repro.harness.traceplane import TraceSpec
from repro.memsys.hierarchy import MemoryHierarchy
from repro.perfmodel import ThroughputModel, WorkloadScalingParams

N_PROCS = 8


def _machine_comparison() -> dict:
    out = {}
    bundle = figure_trace(TraceSpec.official("ecperf", N_PROCS, BENCH_SIM))
    for label, machine in (
        ("e6000", e6000_machine(N_PROCS)),
        ("next_gen", next_generation_machine(N_PROCS)),
    ):
        hierarchy = MemoryHierarchy(machine)
        hierarchy.run_trace(bundle.per_cpu, warmup_fraction=0.5)
        model = InOrderCpuModel(UltraSparcIIParams(latencies=machine.latencies))
        out[label] = {
            "data_mpki": hierarchy.data_mpki(),
            "c2c_ratio": hierarchy.c2c_ratio(),
            "cpi": model.cpi_for_machine(hierarchy).total,
        }
    return out


def test_next_generation_machine(benchmark):
    results = benchmark.pedantic(_machine_comparison, iterations=1, rounds=1)
    print()
    print("machine    data MPKI  c2c_ratio   CPI")
    for label, row in results.items():
        print(
            f"{label:9}  {row['data_mpki']:9.2f}  {row['c2c_ratio']:9.2f}  "
            f"{row['cpi']:5.2f}"
        )
    # The 8 MB L2 removes capacity misses...
    assert results["next_gen"]["data_mpki"] < results["e6000"]["data_mpki"]
    # ...so sharing dominates the remaining misses even more strongly.
    assert results["next_gen"]["c2c_ratio"] > results["e6000"]["c2c_ratio"]


def test_parallel_gc_whatif(benchmark):
    cpi = benchmark.pedantic(
        lambda: measured_cpi_fn("specjbb", BENCH_SIM), iterations=1, rounds=1
    )
    params = WorkloadScalingParams.specjbb_default()
    serial = ThroughputModel(params, cpi, gc_threads=1)
    parallel = ThroughputModel(params, cpi, gc_threads=4)
    print()
    print("procs  speedup(1 GC thread)  speedup(4 GC threads)")
    for p in (4, 8, 15):
        s1, s4 = serial.point(p).speedup, parallel.point(p).speedup
        print(f"{p:5d}  {s1:20.2f}  {s4:21.2f}")
        assert s4 >= s1 - 1e-9
        assert parallel.gc_wall_fraction(p) < serial.gc_wall_fraction(p)
    # The gain is real but modest — GC was never the main scaling loss.
    gain = parallel.point(15).speedup / serial.point(15).speedup
    assert 1.0 < gain < 1.25
