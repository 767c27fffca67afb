"""Supporting study: how close do the workloads come to the bus limit?

The paper's E6000 is a snooping machine; its scaling stories are
software-side (contention, kernel time), which presumes the bus itself
is not the wall.  This bench checks that presumption in the model:
utilization grows roughly linearly with processors and stays below
saturation at 16 — so attributing the Figure 4 rolloff to software is
consistent.
"""

from bench_support import BENCH_SIM

from repro.core.sweep import sweep
from repro.cpu import InOrderCpuModel
from repro.figures.common import figure_trace, simulate_multiprocessor
from repro.harness.traceplane import TraceSpec
from repro.memsys.bandwidth import BusModel

PROCS = [2, 4, 8, 14]


def _utilization(name: str):
    bus = BusModel()
    model = InOrderCpuModel()

    def measure(p):
        bundle = figure_trace(TraceSpec.official(name, p, BENCH_SIM))
        hierarchy = simulate_multiprocessor(bundle, BENCH_SIM)
        cpi = model.cpi_for_machine(hierarchy).total
        return bus.utilization_of(hierarchy, cpi=cpi)

    return sweep("procs", PROCS, measure, metric=f"{name} bus util")


def test_bus_utilization(benchmark):
    results = benchmark.pedantic(
        lambda: {name: _utilization(name) for name in ("ecperf", "specjbb")},
        iterations=1,
        rounds=1,
    )
    print()
    for name, result in results.items():
        print(result.render())
        print(
            f"  queueing slowdown @14p: "
            f"{BusModel.queueing_slowdown(result.at(14)):.2f}x"
        )
        assert result.is_monotonic(increasing=True, tolerance=0.02), name
        assert result.at(14) < 0.9, f"{name}: bus should not saturate"
    # ECperf moves more data (DB marshalling, beans) than SPECjbb.
    assert results["ecperf"].at(8) > results["specjbb"].at(8)
