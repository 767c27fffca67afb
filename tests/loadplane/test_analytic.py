"""Closed-form layer: Erlang C, M/M/c, the closed chain, the laws."""

import math

import pytest

from repro.errors import ConfigError
from repro.loadplane import (
    bottleneck_analysis,
    closed_mmc_metrics,
    erlang_c,
    interactive_response_time,
    littles_law,
    measured_knee,
    mm1_metrics,
    mmc_metrics,
    utilization_law,
)


def test_erlang_c_known_values():
    # M/M/1: P(wait) = rho.
    assert erlang_c(1, 0.5) == pytest.approx(0.5)
    # M/M/2 at rho = 0.5: the textbook value is exactly 1/3.
    assert erlang_c(2, 1.0) == pytest.approx(1 / 3)
    # Zero offered load never waits; saturation always waits.
    assert erlang_c(4, 0.0) == 0.0
    assert erlang_c(4, 4.0) == 1.0
    assert erlang_c(4, 17.0) == 1.0


def test_erlang_c_stable_at_scale():
    # Hundreds of servers near saturation: the factorial form would
    # overflow, the recurrence must stay in (0, 1].
    p = erlang_c(500, 495.0)
    assert 0.0 < p <= 1.0
    with pytest.raises(ConfigError):
        erlang_c(0, 1.0)
    with pytest.raises(ConfigError):
        erlang_c(2, -1.0)


def test_mm1_closed_form():
    # W = 1 / (mu - lambda), N = rho / (1 - rho).
    m = mm1_metrics(arrival_rate=50.0, service_s=0.01)
    assert m.utilization == pytest.approx(0.5)
    assert m.response_s == pytest.approx(1.0 / (100.0 - 50.0))
    assert m.mean_in_system == pytest.approx(0.5 / 0.5)


def test_mmc_internal_consistency():
    m = mmc_metrics(arrival_rate=120.0, service_s=0.02, servers=4)
    # Little's law ties every pair of the reported aggregates.
    assert m.mean_in_system == pytest.approx(m.arrival_rate * m.response_s)
    assert m.mean_queue == pytest.approx(m.arrival_rate * m.queue_wait_s)
    # In-system = queued + in service (the offered load in Erlangs).
    assert m.mean_in_system == pytest.approx(
        m.mean_queue + m.arrival_rate * m.service_s
    )


def test_mmc_rejects_saturation():
    with pytest.raises(ConfigError):
        mmc_metrics(arrival_rate=400.0, service_s=0.02, servers=8)
    with pytest.raises(ConfigError):
        mmc_metrics(arrival_rate=0.0, service_s=0.02, servers=8)


def test_closed_chain_single_user():
    # One user alternates think/service: X = 1 / (Z + S) exactly.
    m = closed_mmc_metrics(n_users=1, think_s=1.0, service_s=0.25, servers=4)
    assert m.throughput == pytest.approx(1.0 / 1.25)
    assert m.response_s == pytest.approx(0.25)
    assert m.cycle_s == pytest.approx(1.25)


def test_closed_chain_saturates_at_capacity():
    m = closed_mmc_metrics(n_users=5000, think_s=1.2, service_s=0.02, servers=8)
    assert m.throughput == pytest.approx(8 / 0.02, rel=1e-6)
    assert m.utilization == pytest.approx(1.0, abs=1e-6)
    # Little at the full cycle: N = X * (R + Z).
    assert m.n_users == pytest.approx(m.throughput * m.cycle_s)


def test_closed_chain_zero_think_degenerate():
    m = closed_mmc_metrics(n_users=50, think_s=0.0, service_s=0.01, servers=4)
    assert m.throughput == pytest.approx(400.0)
    assert m.mean_in_system == 50.0
    few = closed_mmc_metrics(n_users=2, think_s=0.0, service_s=0.01, servers=4)
    assert few.throughput == pytest.approx(200.0)


def test_closed_chain_light_load_matches_no_queueing():
    # Far below the knee the station barely queues: X ~= N / (Z + S).
    m = closed_mmc_metrics(n_users=10, think_s=2.0, service_s=0.01, servers=8)
    assert m.throughput == pytest.approx(10 / 2.01, rel=0.01)


def test_closed_chain_scales_to_a_million_users():
    m = closed_mmc_metrics(
        n_users=1_000_000, think_s=1.2, service_s=0.02, servers=8
    )
    assert m.throughput == pytest.approx(400.0, rel=1e-9)
    assert m.mean_in_system == pytest.approx(1_000_000 - 400 * 1.2, rel=1e-6)
    assert math.isfinite(m.response_s)


def test_closed_chain_validation():
    with pytest.raises(ConfigError):
        closed_mmc_metrics(0, 1.0, 0.01, 4)
    with pytest.raises(ConfigError):
        closed_mmc_metrics(10, -1.0, 0.01, 4)
    with pytest.raises(ConfigError):
        closed_mmc_metrics(10, 1.0, 0.0, 4)
    with pytest.raises(ConfigError):
        closed_mmc_metrics(10, 1.0, 0.01, 0)


def test_operational_laws():
    assert littles_law(throughput=100.0, response_s=0.05) == pytest.approx(5.0)
    assert utilization_law(100.0, 0.02, 4) == pytest.approx(0.5)
    assert interactive_response_time(
        n_users=24, throughput=10.0, think_s=1.0
    ) == pytest.approx(1.4)
    with pytest.raises(ConfigError):
        utilization_law(100.0, 0.02, 0)
    with pytest.raises(ConfigError):
        interactive_response_time(24, 0.0, 1.0)


def test_bottleneck_names_the_saturating_station():
    b = bottleneck_analysis(
        demands_s={"threads": 0.02, "connections": 0.005},
        capacities={"threads": 8, "connections": 1},
        think_s=1.2,
    )
    # connections: 1/0.005 = 200/s < threads: 8/0.02 = 400/s.
    assert b.station == "connections"
    assert b.max_throughput == pytest.approx(200.0)
    assert b.knee_users == pytest.approx(200.0 * (1.2 + 0.025))
    assert "connections" in b.describe()


def test_bottleneck_zero_demand_station_never_saturates():
    b = bottleneck_analysis(
        demands_s={"threads": 0.02, "connections": 0.0},
        capacities={"threads": 8, "connections": 8},
        think_s=1.2,
    )
    assert b.station == "threads"
    with pytest.raises(ConfigError):
        bottleneck_analysis({"a": 0.0}, {"a": 1}, 1.0)
    with pytest.raises(ConfigError):
        bottleneck_analysis({"a": 0.01}, {"b": 1}, 1.0)


def test_measured_knee_detects_falloff():
    # Linear up to the knee (X = N / 1.22), flat after.
    points = [(8, 6.5), (32, 26.2), (128, 104.0), (512, 396.0), (2048, 400.0)]
    assert measured_knee(points, think_s=1.2, base_response_s=0.02) == 2048


def test_measured_knee_ignores_a_noisy_dip():
    # The 32-user point dips below the 0.9x line but the curve
    # recovers at 128: a persistent-falloff knee must skip it.
    points = [(8, 6.5), (32, 21.0), (128, 104.0), (2048, 400.0)]
    assert measured_knee(points, think_s=1.2, base_response_s=0.02) == 2048


def test_measured_knee_none_in_linear_regime():
    points = [(8, 6.5), (32, 26.2), (128, 104.0)]
    assert measured_knee(points, think_s=1.2, base_response_s=0.02) is None
    with pytest.raises(ConfigError):
        measured_knee(points, think_s=0.0, base_response_s=0.0)


def test_saturation_point_solves_its_chain_once():
    """A serial sweep's warm start and its report row share one solve
    of each population's chain."""
    from repro.loadplane import SweepConfig
    from repro.loadplane.sweep import run_saturation

    sweep = SweepConfig(
        populations=(64, 512), threads=4, connections=2, service_s=0.02,
        think_s=0.8, windows=2, window_s=0.5, seed=77,
    )
    closed_mmc_metrics.cache_clear()
    run_saturation(sweep, jobs=1).render()
    info = closed_mmc_metrics.cache_info()
    assert (info.misses, info.hits) == (2, 2)


def test_closed_chain_memo_keys_on_argument_types():
    """An int and a float server count are separate solves, so a cached
    record never reports another call's argument types."""
    closed_mmc_metrics.cache_clear()
    assert closed_mmc_metrics(10, 1.0, 0.01, 4).servers == 4
    assert type(closed_mmc_metrics(10, 1.0, 0.01, 4.0).servers) is float
    assert closed_mmc_metrics.cache_info().misses == 2
