"""Engine mechanics: state containers, histograms, windows, transitions."""

import math
import pickle

import numpy as np
import pytest

from repro import obs
from repro.errors import AnalysisError, ConfigError, SimulationError
from repro.loadplane import (
    LatencyHistogram,
    LoadPlaneConfig,
    UserColumns,
    FifoRing,
    IndexPool,
    profile_for,
    simulate_loadplane,
)
from repro.loadplane.windows import WindowStats, operational_identity_errors
from repro.workloads.mix import (
    ECPERF_MIX,
    SPECJBB_MIX,
    UNIFORM_PROFILE,
    service_profile,
)


# -- batched state containers -----------------------------------------------


def test_user_columns_footprint_is_linear_and_small():
    cols = UserColumns(10_000)
    # phase + txn (1 B each) + three float64 timestamps = 26 B/user.
    assert cols.nbytes() == 10_000 * 26
    with pytest.raises(ConfigError):
        UserColumns(0)


def test_index_pool_add_remove_sample():
    slots = np.full(16, -1, dtype=np.int64)
    pool = IndexPool(8, slot_of=slots)
    for user in (3, 7, 11):
        pool.add(user)
    pool.remove(7)
    assert pool.size == 2
    # The survivor set is exactly {3, 11} whatever the slot order.
    members = {pool.sample_remove(0.0), pool.sample_remove(0.99)}
    assert members == {3, 11}
    assert pool.size == 0


def test_index_pool_misuse_is_loud():
    slots = np.full(4, -1, dtype=np.int64)
    pool = IndexPool(2, slot_of=slots)
    with pytest.raises(SimulationError):
        pool.remove(1)  # never added
    with pytest.raises(SimulationError):
        pool.sample_remove(0.5)  # empty
    with pytest.raises(SimulationError):
        pool.pop()  # empty
    pool.add(0)
    pool.add(1)
    with pytest.raises(SimulationError):
        pool.add(2)  # over capacity


def test_fifo_ring_preserves_order_and_wraps():
    ring = FifoRing(3)
    for user in (5, 6, 7):
        ring.push(user)
    assert ring.pop() == 5
    ring.push(8)  # wraps around the freed head slot
    assert [ring.pop(), ring.pop(), ring.pop()] == [6, 7, 8]
    with pytest.raises(SimulationError):
        ring.pop()
    for user in (1, 2, 3):
        ring.push(user)
    with pytest.raises(SimulationError):
        ring.push(4)


# -- streaming histogram ----------------------------------------------------


def test_histogram_quantiles_within_declared_error():
    hist = LatencyHistogram()
    values = np.linspace(0.001, 1.0, 10_001)
    for v in values:
        hist.add(float(v))
    # Growth 1.04 guarantees ~2% relative quantile error.
    for q in (0.5, 0.95, 0.99):
        exact = float(np.quantile(values, q))
        assert hist.quantile(q) == pytest.approx(exact, rel=0.03)
    assert hist.mean_s == pytest.approx(float(values.mean()), rel=1e-9)


def test_histogram_merge_equals_single_pass():
    a, b, both = LatencyHistogram(), LatencyHistogram(), LatencyHistogram()
    for i, v in enumerate(np.geomspace(1e-4, 10.0, 500)):
        (a if i % 2 else b).add(float(v))
        both.add(float(v))
    a.merge(b)
    assert a.total == both.total
    assert np.array_equal(a.counts, both.counts)
    assert a.percentiles() == both.percentiles()


def _bin_walk_quantile(hist: LatencyHistogram, q: float) -> float:
    """The quantile by walking the bins one at a time (the reference)."""
    if hist.total == 0:
        return 0.0
    rank = q * (hist.total - 1)
    cumulative = 0
    for i, count in enumerate(hist.counts):
        cumulative += int(count)
        if cumulative > rank:
            return hist.lo * hist.growth**i * math.sqrt(hist.growth)
    return hist.lo * hist.growth ** len(hist.counts)


def test_histogram_quantile_equals_the_bin_walk():
    rng = np.random.default_rng(3)
    for _ in range(200):
        hist = LatencyHistogram()
        mu, sigma = rng.uniform(-8, 2), rng.uniform(0.01, 3)
        for v in rng.lognormal(mu, sigma, rng.integers(1, 60)):
            hist.add(float(v))
        for q in (0.0, 0.5, 0.95, 0.99, 1.0, float(rng.random())):
            assert hist.quantile(q) == _bin_walk_quantile(hist, q)


def test_histogram_guards():
    hist = LatencyHistogram()
    with pytest.raises(AnalysisError):
        hist.add(-1e-9)
    with pytest.raises(AnalysisError):
        hist.merge(LatencyHistogram(growth=1.5))
    with pytest.raises(ConfigError):
        hist.quantile(1.5)
    with pytest.raises(ConfigError):
        LatencyHistogram(growth=1.0)
    assert hist.quantile(0.5) == 0.0  # empty histogram


# -- window audit -----------------------------------------------------------


def test_operational_identity_audit_flags_divergence():
    clean = WindowStats(start_s=0.0, end_s=1.0, area_n=3.0, residence_n=3.0)
    assert operational_identity_errors([clean]) == []
    broken = WindowStats(start_s=0.0, end_s=1.0, area_n=3.0, residence_n=3.1)
    errors = operational_identity_errors([clean, broken])
    assert len(errors) == 1
    assert "Little" in errors[0]


# -- service profiles -------------------------------------------------------


def test_service_profiles_are_normalized():
    for mix in (SPECJBB_MIX, ECPERF_MIX):
        profile = service_profile(mix)
        assert sum(profile.probs) == pytest.approx(1.0)
        mean = sum(p * w for p, w in zip(profile.probs, profile.weights))
        assert mean == pytest.approx(1.0)
    assert max(service_profile(SPECJBB_MIX).db_share) == 0.0
    assert min(service_profile(ECPERF_MIX).db_share) > 0.0
    with pytest.raises(ConfigError):
        service_profile([])


def test_profile_for_names():
    assert profile_for("uniform") is UNIFORM_PROFILE
    assert profile_for("ecperf").names == tuple(t.name for t in ECPERF_MIX)
    with pytest.raises(ConfigError):
        profile_for("tpcw")


# -- engine behavior --------------------------------------------------------


def test_config_validation():
    good = dict(n_users=10, threads=2, connections=2, service_s=0.01)
    LoadPlaneConfig(**good)
    for bad in (
        dict(good, n_users=0),
        dict(good, threads=0),
        dict(good, service_s=0.0),
        dict(good, think_s=-1.0),
        dict(good, open_loop=True),  # needs arrival_rate
        dict(good, arrival_rate=5.0),  # closed loop with a rate
        dict(good, windows=0),
        dict(good, warmup_fraction=1.0),
        dict(good, workload="tpcw"),
        dict(good, max_events=0),
    ):
        with pytest.raises(ConfigError):
            LoadPlaneConfig(**bad)


def test_ecperf_mix_contends_for_connections():
    result = simulate_loadplane(
        LoadPlaneConfig(
            n_users=200, threads=16, connections=2, service_s=0.03,
            think_s=0.5, workload="ecperf", windows=8, window_s=1.0, seed=3,
        )
    )
    # A 2-connection pool under 16 threads of ECperf load must block
    # and the DB phase must consume connection-pool tokens.
    assert result.conn_blocked > 0
    assert result.conn_peak == 2
    assert result.stable.conn_utilization > 0.2
    assert result.identity_errors == ()


def test_zero_think_closed_loop_pins_all_users_in_system():
    result = simulate_loadplane(
        LoadPlaneConfig(
            n_users=50, threads=4, connections=1, service_s=0.01,
            think_s=0.0, windows=6, window_s=1.0, seed=5,
        )
    )
    # Every user is always at the station; the station saturates.
    assert result.stable.mean_in_system == pytest.approx(50.0, rel=1e-6)
    assert result.stable.thread_utilization == pytest.approx(1.0, abs=1e-6)
    assert result.stable.throughput == pytest.approx(400.0, rel=0.15)


def test_open_loop_drops_when_slots_exhaust():
    # 4 request slots against an offered load that wants ~20 in
    # system: the drop counter must fire and completions continue.
    result = simulate_loadplane(
        LoadPlaneConfig(
            n_users=4, threads=1, connections=1, service_s=0.05,
            think_s=0.0, open_loop=True, arrival_rate=100.0,
            windows=6, window_s=1.0, seed=9,
        )
    )
    assert result.stable.drops > 0
    assert result.stable.completions > 0
    assert result.identity_errors == ()


def test_event_budget_is_enforced():
    with pytest.raises(SimulationError):
        simulate_loadplane(
            LoadPlaneConfig(
                n_users=100, threads=4, connections=1, service_s=0.001,
                think_s=0.01, windows=4, window_s=5.0, max_events=500,
            )
        )


def test_warm_and_cold_start_agree_on_the_steady_state():
    base = dict(
        n_users=120, threads=8, connections=2, service_s=0.02,
        think_s=0.6, windows=10, window_s=2.0, seed=21,
    )
    warm = simulate_loadplane(LoadPlaneConfig(**base, warm_start=True))
    cold = simulate_loadplane(LoadPlaneConfig(**base, warm_start=False))
    assert warm.stable.throughput == pytest.approx(
        cold.stable.throughput, rel=0.15
    )


def test_result_is_picklable_for_the_harness():
    result = simulate_loadplane(
        LoadPlaneConfig(
            n_users=20, threads=2, connections=1, service_s=0.01,
            windows=3, window_s=0.5,
        )
    )
    clone = pickle.loads(pickle.dumps(result))
    assert clone.stable == result.stable
    assert clone.events == result.events


def test_obs_counters_published_when_enabled(obs_enabled):
    simulate_loadplane(
        LoadPlaneConfig(
            n_users=20, threads=2, connections=1, service_s=0.01,
            windows=3, window_s=0.5,
        )
    )
    counters = obs_enabled.COUNTERS.snapshot()
    assert counters.get("loadplane/events", 0) > 0
    assert counters.get("loadplane/completions", 0) > 0


_PLACE_RUN = LoadPlaneConfig(
    n_users=20_000, threads=8, connections=8, service_s=0.02, think_s=1.2,
    windows=2, window_s=0.5,
)


def test_placement_span_nests_inside_simulate(obs_enabled):
    simulate_loadplane(_PLACE_RUN)
    spans = obs_enabled.SPANS.finished
    (place,) = [r for r in spans if r["span"] == "loadplane/place"]
    (sim,) = [r for r in spans if r["span"] == "loadplane/simulate"]
    assert place["parent"] == "loadplane/simulate"
    assert place["depth"] == sim["depth"] + 1
    assert place["placed"] == 19_520  # the closed M/M/c//N fixed point
    assert place["duration_s"] <= sim["duration_s"]


def test_no_placement_span_with_spans_off():
    simulate_loadplane(_PLACE_RUN)
    assert obs.SPANS.finished == []
