"""End-to-end integration: workload -> hierarchy -> CPI -> model."""

import pytest

from repro.core.config import SimConfig, e6000_machine
from repro.core.experiment import run_repeated
from repro.cpu import InOrderCpuModel
from repro.figures.common import figure_trace, simulate_multiprocessor
from repro.harness.traceplane import TraceSpec
from repro.memsys.hierarchy import MemoryHierarchy
from repro.rng import RngFactory
from repro.workloads.ecperf import EcperfWorkload
from repro.workloads.specjbb import SpecJbbWorkload

SIM = SimConfig(seed=21, refs_per_proc=40_000, warmup_fraction=0.5)


def _trace(name: str, n_procs: int):
    return figure_trace(TraceSpec.official(name, n_procs, SIM))


@pytest.mark.parametrize("workload_cls", [SpecJbbWorkload, EcperfWorkload])
def test_full_pipeline_produces_plausible_cpi(workload_cls):
    workload = workload_cls()
    bundle = workload.generate(4, SIM, RngFactory(seed=SIM.seed))
    hierarchy = MemoryHierarchy(e6000_machine(4))
    hierarchy.run_trace(bundle.per_cpu, warmup_fraction=0.5)
    hierarchy.bus.check_invariants()
    cpi = InOrderCpuModel().cpi_for_machine(hierarchy)
    assert 1.4 < cpi.total < 4.5
    assert 0.0 < cpi.data_stall.total < 2.0


def test_multiprocessor_sharing_appears_above_two_procs():
    one = simulate_multiprocessor(_trace("specjbb", 1), SIM)
    four = simulate_multiprocessor(_trace("specjbb", 4), SIM)
    assert one.c2c_ratio() == 0.0
    assert four.c2c_ratio() > 0.15


def test_shared_cache_removes_coherence_misses():
    bundle = _trace("ecperf", 4)
    private = simulate_multiprocessor(bundle, SIM, procs_per_l2=1)
    shared = simulate_multiprocessor(bundle, SIM, procs_per_l2=4)
    assert shared.total_c2c_fills == 0
    assert private.total_c2c_fills > 0


def test_msi_vs_mosi_copybacks():
    """MOSI keeps an owner; MSI pays a memory update per read-supply.

    On migratory (RMW) sharing the two protocols see similar copyback
    counts, but ECperf's read-shared beans let MOSI's OWNED state keep
    supplying, while MSI hands the line to memory — visible both as
    fewer copybacks and as the extra writebacks MSI's supply path
    performs.
    """
    bundle = _trace("ecperf", 4)
    mosi = simulate_multiprocessor(bundle, SIM, protocol="mosi")
    msi = simulate_multiprocessor(bundle, SIM, protocol="msi")
    assert mosi.total_c2c_fills >= msi.total_c2c_fills
    assert msi.bus.stats.writebacks > mosi.bus.stats.writebacks


def test_variability_methodology_end_to_end():
    """Alameldeen-Wood style: repeated runs give a mean and spread."""

    def one_run(factory):
        workload = SpecJbbWorkload(warehouses=2)
        bundle = workload.generate(2, SIM.with_refs(15_000), factory)
        hierarchy = MemoryHierarchy(e6000_machine(2))
        hierarchy.run_trace(bundle.per_cpu, warmup_fraction=0.5)
        return {"c2c_ratio": hierarchy.c2c_ratio()}

    results = run_repeated(one_run, n_runs=3, seed=77)
    ratio = results["c2c_ratio"]
    assert ratio.n == 3
    assert 0.0 <= ratio.mean <= 1.0


def test_same_seed_same_results():
    a = simulate_multiprocessor(_trace("ecperf", 2), SIM)
    b = simulate_multiprocessor(_trace("ecperf", 2), SIM)
    assert a.total_l2_misses == b.total_l2_misses
    assert a.total_c2c_fills == b.total_c2c_fills


def test_public_api_exports():
    import repro

    assert repro.__version__
    assert repro.E6000.n_procs == 16
    for name in ("MemoryHierarchy", "SetAssociativeCache", "simulate_miss_curve"):
        assert hasattr(repro, name)
