"""The load plane's compiled events step against the Python loop.

``_Engine.run`` plays its events in the kernel library's
``jmmw_events`` step when the fast path is on and the step is built,
else in the Python reference loop.  The step draws from the engine's
own generator through numpy's samplers, so the two must agree bit for
bit: equal results (``result_digest``), equal final generator state and
equal leftover random blocks, over hypothesis-drawn configurations
that cover the three mixes, zero and nonzero think, the open loop with
drops, cold and warm starts, populations that straddle the 8,192-draw
block and one to six windows.  Errors must read the same on both paths,
and the degraded modes (no library, no ``libnpyrandom.a``) must run the
reference, count the decline once per run and say so once on stderr.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.cli import main
from repro.errors import SimulationError
from repro.loadplane import LoadPlaneConfig, simulate_loadplane
from repro.loadplane.engine import _Engine
from repro.memsys import fastpath_coherence
from repro.memsys.fastpath_coherence import (
    EVENTS_FALLBACK_COUNTER,
    npyrandom_step_declines,
)
from test_result_digests import result_digest

needs_events_step = pytest.mark.skipif(
    npyrandom_step_declines() is not None,
    reason=f"load-plane events run in Python here: {npyrandom_step_declines()}",
)


@contextmanager
def _fastpath(value: str):
    """``JMMW_FASTPATH`` set to ``value`` for the block (hypothesis
    examples cannot share a function-scoped monkeypatch)."""
    previous = os.environ.get("JMMW_FASTPATH")
    os.environ["JMMW_FASTPATH"] = value
    try:
        yield
    finally:
        if previous is None:
            del os.environ["JMMW_FASTPATH"]
        else:
            os.environ["JMMW_FASTPATH"] = previous


def _run(config: LoadPlaneConfig, fastpath: str) -> tuple[str, tuple]:
    """Which loop ran, and everything a run leaves behind."""
    with _fastpath(fastpath):
        engine = _Engine(config)
        result = engine.run()
    rand = engine.rand
    return engine.step, (
        result_digest(result),
        rand._rng.bit_generator.state,
        rand._ui, rand._ei, rand._uni, rand._exp,
    )


def _assert_parity(config: LoadPlaneConfig) -> None:
    step, compiled = _run(config, "1")
    reference_step, reference = _run(config, "0")
    assert (step, reference_step) == ("kernel", "reference")
    assert compiled[0] == reference[0], "results differ"
    assert compiled[1] == reference[1], "final generator states differ"
    assert compiled[2:] == reference[2:], "leftover random blocks differ"


#: Populations on both sides of one and two 8,192-draw blocks, and small ones.
_POPULATIONS = st.one_of(
    st.integers(8_188, 8_196), st.integers(1, 300), st.integers(16_380, 16_388)
)


@st.composite
def configs(draw) -> LoadPlaneConfig:
    threads = draw(st.integers(1, 16))
    service_s = draw(st.floats(0.005, 0.05))
    loop = draw(st.sampled_from(["think", "open", "zero-think"]))
    common = dict(
        n_users=draw(_POPULATIONS),
        threads=threads,
        connections=draw(st.integers(1, 8)),
        service_s=service_s,
        workload=draw(st.sampled_from(["ecperf", "specjbb", "uniform"])),
        windows=draw(st.integers(1, 6)),
        window_s=draw(st.floats(0.05, 0.4)),
        warm_start=draw(st.booleans()),
        seed=draw(st.integers(0, 2**31)),
    )
    if loop == "open":
        # Up to twice the thread capacity: small slot counts drop.
        capacity = threads / service_s
        return LoadPlaneConfig(
            **{**common, "n_users": draw(st.integers(1, 64))},
            think_s=0.0, open_loop=True,
            arrival_rate=draw(st.floats(0.1, 2.0)) * capacity,
        )
    think_s = 0.0 if loop == "zero-think" else draw(st.floats(0.05, 2.0))
    return LoadPlaneConfig(**common, think_s=think_s)


@needs_events_step
@settings(max_examples=80, deadline=None, derandomize=True)
@given(config=configs())
def test_events_step_equals_the_reference_loop(config):
    _assert_parity(config)


@needs_events_step
@pytest.mark.parametrize("config", [
    # Open loop, four slots against twenty wanted in the system: drops.
    LoadPlaneConfig(
        n_users=4, threads=1, connections=1, service_s=0.05, think_s=0.0,
        open_loop=True, arrival_rate=100.0, windows=6, window_s=1.0, seed=9,
    ),
    # Zero think, connection-bound ECperf: both wait queues in use.
    LoadPlaneConfig(
        n_users=8_193, think_s=0.0, workload="ecperf", connections=2,
        windows=4, window_s=0.5,
    ),
    # A saturation-campaign point.
    LoadPlaneConfig(n_users=10_000, workload="ecperf", windows=6, window_s=1.0),
], ids=["open-loop-drops", "zero-think-ecperf", "saturation-point"])
def test_events_step_equals_the_reference_loop_at_fixed_points(config):
    _assert_parity(config)


def test_event_budget_error_reads_the_same_on_both_paths():
    config = LoadPlaneConfig(
        n_users=100, threads=4, connections=1, service_s=0.001,
        think_s=0.01, windows=4, window_s=5.0, max_events=500,
    )
    messages = []
    for fastpath in ("1", "0"):
        with _fastpath(fastpath), pytest.raises(SimulationError) as caught:
            simulate_loadplane(config)
        messages.append(str(caught.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith("load plane exceeded its 500 event budget at t=")


@needs_events_step
def test_simulate_span_names_the_loop_that_ran(obs_enabled):
    config = LoadPlaneConfig(n_users=20, windows=2, window_s=0.5)
    for fastpath, step in (("1", "kernel"), ("0", "reference")):
        with _fastpath(fastpath):
            simulate_loadplane(config)
        span = obs.SPANS.finished[-1]
        assert (span["span"], span["events"]) == ("loadplane/simulate", step)
    assert not any(
        name.startswith(EVENTS_FALLBACK_COUNTER) for name in obs.COUNTERS.snapshot()
    )


# -- degraded modes ----------------------------------------------------------

_SWEEP = ["loadplane", "--users", "8", "32", "--no-cache", "--no-plot"]


def _fallbacks() -> dict:
    return {
        name: n for name, n in obs.COUNTERS.snapshot().items()
        if name.startswith(EVENTS_FALLBACK_COUNTER)
    }


def _events_notes(err: str) -> list[str]:
    return [line for line in err.splitlines() if "played their events" in line]


def test_no_kernel_runs_the_reference_and_says_so(monkeypatch, capsys, tmp_path):
    monkeypatch.setenv("JMMW_FASTPATH", "1")
    monkeypatch.setenv("JMMW_CACHE_DIR", str(tmp_path))
    config = LoadPlaneConfig(n_users=300, workload="ecperf", windows=3, window_s=0.5)
    healthy = result_digest(simulate_loadplane(config))
    assert main(_SWEEP) == 0
    plain = capsys.readouterr()
    monkeypatch.setattr(fastpath_coherence, "_load_library", lambda: None)
    obs.reset()
    assert result_digest(simulate_loadplane(config)) == healthy
    assert _fallbacks() == {f"{EVENTS_FALLBACK_COUNTER}/no-kernel": 1}
    assert main(_SWEEP) == 0
    degraded = capsys.readouterr()
    assert degraded.out == plain.out
    assert _events_notes(plain.err) == []
    assert _events_notes(degraded.err) == [
        "note: 2 load-plane run(s) played their events in Python: "
        "the compiled kernel is unavailable (no C compiler?)"
    ]


@needs_events_step
def test_no_npyrandom_runs_the_reference(monkeypatch, tmp_path, obs_enabled):
    """A library built without numpy's samplers holds no events step."""
    monkeypatch.setenv("JMMW_FASTPATH", "1")
    config = LoadPlaneConfig(n_users=300, workload="ecperf", windows=3, window_s=0.5)
    healthy = result_digest(simulate_loadplane(config))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(fastpath_coherence, "_lib", None)
    monkeypatch.setattr(fastpath_coherence, "_lib_tried", False)
    monkeypatch.setattr(fastpath_coherence, "_npyrandom_archive", lambda: None)
    assert npyrandom_step_declines() == "no-npyrandom"
    obs.reset()
    assert result_digest(simulate_loadplane(config)) == healthy
    assert _fallbacks() == {f"{EVENTS_FALLBACK_COUNTER}/no-npyrandom": 1}
    assert obs.SPANS.finished[-1]["events"] == "reference"


def test_reference_switch_counts_no_decline(monkeypatch):
    """Under ``JMMW_FASTPATH=0`` the step is not asked: nothing is counted."""
    monkeypatch.setenv("JMMW_FASTPATH", "0")
    monkeypatch.setattr(fastpath_coherence, "_load_library", lambda: None)
    simulate_loadplane(LoadPlaneConfig(n_users=20, windows=2, window_s=0.5))
    assert _fallbacks() == {}
