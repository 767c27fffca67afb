"""The load plane vs analytic queueing oracles, adversarially sampled.

Hypothesis draws random operating points — population, servers,
service and think times for the closed loop; arrival rate, servers and
service for the open loop with utilization capped below 0.9 — and each
simulated run must land inside a statistical acceptance band around
the exact M/M/c / M/M/c//N prediction (a ~5-sigma band on the stable
completion count, so false alarms are vanishingly rare while real bias
is caught).  The operational laws are asserted as float-exact
identities per window, not statistics: they compare two *independent*
accountings of the same integrals.

The seeded-defect tests close the loop on the suite itself: biasing
the think-time sampler or breaking the residence clipping must make
the respective check fail loudly — proving the oracles have teeth.
Each defect is seeded into both implementations of the event loop:
the Python reference and the kernel's compiled events step.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import InvariantViolation
from repro.loadplane import (
    LoadPlaneConfig,
    closed_mmc_metrics,
    mmc_metrics,
    simulate_loadplane,
)
from repro.loadplane import engine as engine_mod
from repro.memsys import fastpath_coherence

#: Acceptance band: |completions - X*T| <= SIGMAS * sqrt(X*T) + SLACK.
#: The stable-period completion count is Poisson-like; 5 sigma plus a
#: small absolute slack (for near-empty bands) makes a false alarm a
#: <1e-6 event per example while a 2x-biased sampler overshoots the
#: band many times over.
SIGMAS = 5.0
SLACK = 5.0


def _completions_band(expected_rate: float, duration_s: float) -> tuple[float, float]:
    expected = expected_rate * duration_s
    half_width = SIGMAS * math.sqrt(expected) + SLACK
    return expected - half_width, expected + half_width


def _assert_in_band(result, expected_rate: float) -> None:
    stable = result.stable
    lo, hi = _completions_band(expected_rate, stable.duration_s)
    assert lo <= stable.completions <= hi, (
        f"stable completions {stable.completions} outside "
        f"[{lo:.1f}, {hi:.1f}] for predicted X={expected_rate:.3f}/s "
        f"over {stable.duration_s:.1f}s"
    )


def _assert_exact_operational_identities(result) -> None:
    """Little's and the utilization law as per-window float identities."""
    assert result.identity_errors == ()
    threads = result.config.threads
    for w in result.windows:
        # N = X * R with N from the area integral and X * R expanded
        # from the independent per-user residence accounting.
        assert w.mean_in_system * w.duration_s == pytest.approx(
            w.residence_n, rel=1e-9, abs=1e-9
        )
        # U * c * T = sum of per-user thread-holding time.
        assert w.thread_utilization(threads) * threads * w.duration_s == (
            pytest.approx(w.residence_busy_threads, rel=1e-9, abs=1e-9)
        )


closed_points = st.fixed_dictionaries(
    {
        "n_users": st.integers(min_value=1, max_value=40),
        "threads": st.integers(min_value=1, max_value=4),
        "service_ms": st.floats(min_value=10.0, max_value=50.0),
        "think_s": st.floats(min_value=0.2, max_value=2.0),
        "seed": st.integers(min_value=0, max_value=2**31),
    }
)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(point=closed_points)
def test_closed_loop_converges_to_the_repairman_chain(point):
    config = LoadPlaneConfig(
        n_users=point["n_users"],
        threads=point["threads"],
        connections=1,
        service_s=point["service_ms"] / 1e3,
        think_s=point["think_s"],
        windows=10,
        window_s=2.0,
        seed=point["seed"],
    )
    result = simulate_loadplane(config)
    predicted = closed_mmc_metrics(
        config.n_users, config.think_s, config.service_s, config.threads
    )
    _assert_in_band(result, predicted.throughput)
    _assert_exact_operational_identities(result)


open_points = st.fixed_dictionaries(
    {
        "servers": st.integers(min_value=1, max_value=4),
        "service_ms": st.floats(min_value=10.0, max_value=50.0),
        "rho": st.floats(min_value=0.05, max_value=0.9, exclude_max=True),
        "seed": st.integers(min_value=0, max_value=2**31),
    }
)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(point=open_points)
def test_open_loop_converges_to_mmc(point):
    service_s = point["service_ms"] / 1e3
    arrival_rate = point["rho"] * point["servers"] / service_s
    predicted = mmc_metrics(arrival_rate, service_s, point["servers"])
    # Request slots far beyond the predicted population: no drops, so
    # the slot-capped process is the unbounded M/M/c to this horizon.
    slots = max(64, int(20 * predicted.mean_in_system))
    config = LoadPlaneConfig(
        n_users=slots,
        threads=point["servers"],
        connections=1,
        service_s=service_s,
        think_s=0.0,
        open_loop=True,
        arrival_rate=arrival_rate,
        windows=10,
        window_s=2.0,
        seed=point["seed"],
    )
    result = simulate_loadplane(config)
    assert result.stable.drops == 0
    _assert_in_band(result, arrival_rate)
    _assert_exact_operational_identities(result)
    # Utilization tracks rho: U's estimator is an average over busy
    # servers, tighter than the completion count; 5 sigma of the
    # per-completion contribution bounds it comfortably.
    sigma_u = point["rho"] / math.sqrt(
        max(result.stable.completions, 1)
    )
    assert result.stable.thread_utilization == pytest.approx(
        predicted.utilization, abs=SIGMAS * sigma_u + 0.01
    )


def test_closed_loop_response_time_tracks_the_chain():
    # One fixed moderately-loaded point, long horizon: operational
    # R = N/X must match the chain's response time within the band
    # implied by the completion noise.
    config = LoadPlaneConfig(
        n_users=64, threads=4, connections=1, service_s=0.03,
        think_s=0.8, windows=12, window_s=2.5, seed=1717,
    )
    result = simulate_loadplane(config)
    predicted = closed_mmc_metrics(64, 0.8, 0.03, 4)
    assert result.stable.response_time_s == pytest.approx(
        predicted.response_s, rel=0.15
    )
    assert result.stable.mean_in_system == pytest.approx(
        predicted.mean_in_system, rel=0.15
    )


# -- seeded defects: the oracles must have teeth ----------------------------


def test_biased_think_sampler_fails_the_throughput_oracle(monkeypatch):
    """A 2x-fast think sampler must overshoot the acceptance band.

    This is the canonical silent workload-generator bug: every think
    time is drawn from the right distribution family with the wrong
    rate.  Throughput stays plausible-looking (the run completes, no
    invariant trips) but the analytic cross-check must reject it.
    """
    config = LoadPlaneConfig(
        n_users=24, threads=4, connections=1, service_s=0.02,
        think_s=1.0, windows=10, window_s=2.0, seed=42,
    )
    predicted = closed_mmc_metrics(24, 1.0, 0.02, 4)
    # The compiled step takes the scale with each run: both paths.
    for fastpath in ("1", "0"):
        monkeypatch.setenv("JMMW_FASTPATH", fastpath)
        monkeypatch.setattr(engine_mod, "_THINK_RATE_SCALE", 1.0)
        healthy = simulate_loadplane(config)
        _assert_in_band(healthy, predicted.throughput)

        monkeypatch.setattr(engine_mod, "_THINK_RATE_SCALE", 2.0)
        biased = simulate_loadplane(config)
        lo, hi = _completions_band(
            predicted.throughput, biased.stable.duration_s
        )
        assert biased.stable.completions > hi, (
            "a 2x-biased think sampler must be caught by the oracle band"
        )


def test_broken_residence_clipping_fails_the_identity_audit(monkeypatch):
    """Unclipped sojourns must trip the operational-law audit.

    Dropping the window clip double-counts the pre-window part of any
    sojourn that straddles a boundary — the kind of off-by-a-window
    accounting slip that leaves throughput untouched and would
    otherwise skew response times silently.  The patched function is
    Python's, so the reference loop runs (``JMMW_FASTPATH=0``).
    """
    monkeypatch.setenv("JMMW_FASTPATH", "0")
    monkeypatch.setattr(engine_mod, "_window_clip", lambda t0, start: t0)
    _assert_caught_unclipped()


#: The point both unclipped-residence defects are seeded into.
_UNCLIPPED = LoadPlaneConfig(
    n_users=40, threads=2, connections=1, service_s=0.05,
    think_s=0.2, windows=8, window_s=0.25, seed=7,
)


def _assert_caught_unclipped():
    with pytest.raises(InvariantViolation):
        simulate_loadplane(_UNCLIPPED)
    result = simulate_loadplane(_UNCLIPPED, check_identities=False)
    assert result.identity_errors != ()
    return result


@pytest.mark.skipif(
    fastpath_coherence.npyrandom_step_declines() is not None,
    reason="load-plane events run in Python here",
)
def test_unclipped_residence_in_the_events_step_fails_the_identity_audit(
    monkeypatch,
):
    """The compiled twin of the clipping defect
    (``LOADPLANE_DEFECT_NO_CLIP``) trips the same audit, and its run is
    the patched reference's, bit for bit."""
    monkeypatch.setenv("JMMW_FASTPATH", "1")
    monkeypatch.setattr(
        fastpath_coherence, "_defect", fastpath_coherence.LOADPLANE_DEFECT_NO_CLIP
    )
    compiled = _assert_caught_unclipped()
    monkeypatch.setenv("JMMW_FASTPATH", "0")
    monkeypatch.setattr(engine_mod, "_window_clip", lambda t0, start: t0)
    reference = simulate_loadplane(_UNCLIPPED, check_identities=False)
    assert compiled.identity_errors == reference.identity_errors
    assert compiled.stable == reference.stable
