"""Figure scaffolding: workload construction, CPI interpolation."""

import dataclasses

import pytest

from repro.core.config import SimConfig
from repro.errors import ConfigError
from repro.figures.common import (
    FigureResult,
    figure_trace,
    make_workload,
    measured_cpi_fn,
    simulate_multiprocessor,
)
from repro.harness.traceplane import TraceSpec

SIM = SimConfig(seed=13, refs_per_proc=20_000, warmup_fraction=0.5)


def test_make_workload():
    assert make_workload("specjbb", 5).warehouses == 5
    assert make_workload("ecperf", 5).injection_rate == 5
    with pytest.raises(ConfigError):
        make_workload("tpcc")


def test_official_spec_scales_with_procs():
    spec = TraceSpec.official("specjbb", 6, SIM)
    assert (spec.scale, spec.n_procs, spec.sim) == (6, 6, SIM)
    assert TraceSpec.official("ecperf", 6, SIM).scale == 6
    assert make_workload("specjbb", spec.scale).warehouses == 6


def test_os_processor_adds_a_cache():
    bundle = figure_trace(TraceSpec.official("specjbb", 2, SIM))
    plain = simulate_multiprocessor(bundle, SIM)
    with_os = simulate_multiprocessor(bundle, SIM, include_os_processor=True)
    assert len(with_os.bus.caches) == len(plain.bus.caches) + 1


def test_measured_cpi_fn_follows_the_interleave_quantum():
    """Every call replays at the SimConfig it is given: nothing memoized
    can serve one quantum's anchors to a call at another."""
    fine = dataclasses.replace(SIM, interleave_quantum=3)
    assert fine.interleave_quantum != SIM.interleave_quantum
    first = measured_cpi_fn("specjbb", SIM, anchor_procs=(4,))(4)
    second = measured_cpi_fn("specjbb", fine, anchor_procs=(4,))(4)
    assert second != first
    assert measured_cpi_fn("specjbb", SIM, anchor_procs=(4,))(4) == first


def test_measured_cpi_fn_interpolates():
    cpi = measured_cpi_fn("specjbb", SIM, anchor_procs=(1, 4))
    assert cpi(1) > 1.0
    assert cpi(4) >= cpi(1) * 0.8
    mid = cpi(2)
    lo, hi = sorted((cpi(1), cpi(4)))
    assert lo - 1e-9 <= mid <= hi + 1e-9
    # Clamped outside the anchors.
    assert cpi(16) == cpi(4)


def test_figure_result_render():
    result = FigureResult(
        figure_id="figXX",
        title="demo",
        columns=["a"],
        rows=[(1,)],
        paper_claim="claim",
        notes="note",
    )
    text = result.render()
    assert "figXX" in text and "claim" in text and "note" in text
