"""CPI model and data-stall decomposition."""

import pytest

from repro.core.metrics import DataStallBreakdown
from repro.cpu import InOrderCpuModel, UltraSparcIIParams, decompose_data_stall
from repro.errors import AnalysisError, ConfigError
from repro.memsys.hierarchy import ProcessorStats
from repro.memsys.latency import E6000_LATENCIES


def stats_with(**kwargs) -> ProcessorStats:
    stats = ProcessorStats()
    stats.instructions = kwargs.pop("instructions", 1_000_000)
    for key, value in kwargs.items():
        setattr(stats, key, value)
    return stats


def test_base_cpi_only():
    model = InOrderCpuModel()
    cpi = model.cpi_for_stats(stats_with())
    assert cpi.other == model.params.base_cpi
    assert cpi.instruction_stall == 0.0
    # RAW and TLB terms are always present (frequency-based).
    assert cpi.data_stall.raw_hazard > 0


def test_instruction_stall_terms():
    model = InOrderCpuModel()
    cpi = model.cpi_for_stats(
        stats_with(l1i_misses=10_000, l2_instr_misses=1_000)
    )
    lat = model.params.latencies
    expected = (9_000 * lat.l2_hit + 1_000 * lat.memory) / 1_000_000
    assert cpi.instruction_stall == pytest.approx(expected)


def test_load_stall_terms():
    model = InOrderCpuModel()
    cpi = model.cpi_for_stats(
        stats_with(
            l1d_misses=20_000,
            l2_load_hits=15_000,
            c2c_load_fills=2_000,
            mem_load_fills=3_000,
        )
    )
    lat = model.params.latencies
    ds = cpi.data_stall
    assert ds.l2_hit == pytest.approx(15_000 * lat.l2_hit / 1e6)
    assert ds.cache_to_cache == pytest.approx(2_000 * lat.cache_to_cache / 1e6)
    assert ds.memory == pytest.approx(3_000 * lat.memory / 1e6)


def test_c2c_costs_more_than_memory():
    """The E6000 property the stall decomposition hinges on."""
    model = InOrderCpuModel()
    via_c2c = model.cpi_for_stats(
        stats_with(l1d_misses=10_000, c2c_load_fills=10_000)
    )
    via_mem = model.cpi_for_stats(
        stats_with(l1d_misses=10_000, mem_load_fills=10_000)
    )
    assert via_c2c.total > via_mem.total
    assert via_c2c.total - via_mem.total == pytest.approx(
        10_000 * (E6000_LATENCIES.cache_to_cache - E6000_LATENCIES.memory) / 1e6
    )


def test_store_buffer_grows_with_store_rate():
    model = InOrderCpuModel()
    light = model.cpi_for_stats(stats_with(stores=10_000))
    heavy = model.cpi_for_stats(stats_with(stores=400_000))
    assert heavy.data_stall.store_buffer >= light.data_stall.store_buffer


def test_zero_instructions_rejected():
    model = InOrderCpuModel()
    with pytest.raises(AnalysisError):
        model.cpi_for_stats(ProcessorStats())


def test_params_validation():
    with pytest.raises(ConfigError):
        UltraSparcIIParams(base_cpi=0)
    with pytest.raises(ConfigError):
        UltraSparcIIParams(store_buffer_depth=0)
    with pytest.raises(ConfigError):
        UltraSparcIIParams(raw_hazard_rate=1.0)


def test_decompose_validation():
    with pytest.raises(AnalysisError):
        decompose_data_stall(0, 0, 0, 0, 0, E6000_LATENCIES)
    with pytest.raises(AnalysisError):
        decompose_data_stall(100, -1, 0, 0, 0, E6000_LATENCIES)


def test_breakdown_fractions_sum_to_one():
    ds = DataStallBreakdown(
        store_buffer=0.1, raw_hazard=0.05, l2_hit=0.2, cache_to_cache=0.3, memory=0.3
    )
    assert sum(ds.fractions().values()) == pytest.approx(1.0)
    empty = DataStallBreakdown()
    assert all(v == 0 for v in empty.fractions().values())


def test_cpi_breakdown_properties():
    from repro.core.metrics import CpiBreakdown

    cpi = CpiBreakdown(
        instruction_stall=0.3,
        data_stall=DataStallBreakdown(memory=0.7),
        other=1.0,
    )
    assert cpi.total == pytest.approx(2.0)
    assert cpi.data_stall_fraction == pytest.approx(0.35)
    assert cpi.instruction_stall_fraction == pytest.approx(0.15)


def test_machine_average_weighted(small_sim, rng_factory):
    from repro.figures.common import figure_trace, simulate_multiprocessor
    from repro.harness.traceplane import TraceSpec

    h = simulate_multiprocessor(
        figure_trace(TraceSpec("specjbb", 2, 2, small_sim)), small_sim
    )
    model = InOrderCpuModel()
    machine = model.cpi_for_machine(h)
    assert 1.3 < machine.total < 4.0
