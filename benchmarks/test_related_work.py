"""Related-work comparison: VolanoMark vs the middleware benchmarks.

Section 6: VolanoMark's thread-per-connection server spends far more
time in the kernel than the pooled application server; SPECjbb has "a
much lower kernel component than VolanoMark" too.  This bench measures
the modeled kernel fractions and the memory-system contrast (tiny code
footprint, network-buffer-dominated sharing).
"""

from bench_support import BENCH_SIM

from repro.figures.common import simulate_multiprocessor
from repro.rng import RngFactory
from repro.workloads.ecperf import EcperfWorkload
from repro.workloads.specjbb import SpecJbbWorkload
from repro.workloads.volanomark import VolanoMarkWorkload

N_PROCS = 8


def _measure() -> dict:
    workloads = {
        "specjbb": SpecJbbWorkload(warehouses=N_PROCS),
        "ecperf": EcperfWorkload(injection_rate=N_PROCS),
        "volanomark": VolanoMarkWorkload(connections=200, rooms=10),
    }
    out = {}
    for name, workload in workloads.items():
        bundle = workload.generate(N_PROCS, BENCH_SIM, RngFactory(seed=BENCH_SIM.seed))
        hierarchy = simulate_multiprocessor(bundle, BENCH_SIM)
        bundle_meta = workload.generate(
            1, BENCH_SIM.with_refs(2_000), RngFactory(1)
        ).meta
        out[name] = {
            "kernel_frac_8p": workload.kernel_time_model.system_fraction(N_PROCS),
            "c2c_ratio": hierarchy.c2c_ratio(),
            "code_kb": bundle_meta["code_bytes"] / 1024,
        }
    return out


def test_related_work_comparison(benchmark):
    results = benchmark.pedantic(_measure, iterations=1, rounds=1)
    print()
    print("workload    kernel@8p  c2c_ratio  code KB")
    for name, row in results.items():
        print(
            f"{name:10}  {row['kernel_frac_8p']:9.2f}  "
            f"{row['c2c_ratio']:9.2f}  {row['code_kb']:7.0f}"
        )
    # The paper's ordering: volano >> ecperf >> specjbb on kernel time.
    assert (
        results["volanomark"]["kernel_frac_8p"]
        > results["ecperf"]["kernel_frac_8p"]
        > results["specjbb"]["kernel_frac_8p"]
    )
    # And ECperf's middleware stack dwarfs both applications' code.
    assert results["ecperf"]["code_kb"] > results["volanomark"]["code_kb"]
