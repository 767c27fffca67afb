"""Ablation: bus interleaving quantum.

The trace interleaver time-slices processors in round-robin quanta
(the deterministic stand-in for scheduling granularity).  Finer
interleaving exposes more ping-pong on contended lines; coarse quanta
let each processor batch its reuse.  The C2C ratio should move gently
— if results hinged strongly on the quantum, the interleaving model
would be doing the work instead of the workload structure.
"""

from bench_support import BENCH_SIM

from repro.core.config import e6000_machine
from repro.figures.common import figure_trace
from repro.harness.traceplane import TraceSpec
from repro.memsys.hierarchy import MemoryHierarchy

QUANTA = [16, 64, 256, 1024]
N_PROCS = 8


def _sweep() -> dict:
    bundle = figure_trace(TraceSpec.official("specjbb", N_PROCS, BENCH_SIM))
    out = {}
    for quantum in QUANTA:
        hierarchy = MemoryHierarchy(e6000_machine(N_PROCS))
        hierarchy.run_trace(bundle.per_cpu, quantum=quantum, warmup_fraction=0.5)
        out[quantum] = hierarchy.c2c_ratio()
    return out


def test_ablation_quantum(benchmark):
    ratios = benchmark.pedantic(_sweep, iterations=1, rounds=1)
    print()
    print("SPECjbb 8p C2C ratio by interleave quantum:")
    for quantum, ratio in ratios.items():
        print(f"  quantum {quantum:5d} refs: {ratio:.3f}")
    values = list(ratios.values())
    # Finer interleaving sees at least as much ping-pong...
    assert values[0] >= values[-1] - 0.02
    # ...but the effect is second-order (workload structure dominates).
    assert max(values) - min(values) < 0.25
