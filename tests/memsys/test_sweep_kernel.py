"""The compiled miss-curve sweep against the scalar reference.

:func:`repro.memsys.stream.simulate_miss_curve_stream` runs every
Figure 12/13 sweep in the compiled step
(:class:`repro.memsys.fastpath_coherence.SweepSession`) when it can,
and in :class:`repro.memsys.multisim.MultiConfigSimulator` (the
reference) otherwise.  The step keeps one cache per geometry alive
across chunks, so its points must equal the reference's at any
chunking: hypothesis draws traces, geometries mixing block sizes, and
chunkings with empty chunks and boundaries inside the warmup window.

Also here: the degraded modes (no library, an allocation decline,
``JMMW_FASTPATH=0``), in which the sweep runs the reference and the
figures do not move, and the ``sweep`` attribute of the
``memsys/miss_curve`` span, which names the one that ran.  The seeded sweep defect
(``SWEEP_DEFECT_FORGET_AT_FEED``) is tested where the chunked parity
checks live, in ``test_stream_parity.py`` and ``test_seeded_defects.py``.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.cli import main
from repro.errors import ConfigError
from repro.memsys import fastpath_coherence
from repro.memsys.block import IFETCH, LOAD, STORE, encode_ref
from repro.memsys.config import CacheConfig
from repro.memsys.fastpath_coherence import SWEEP_FALLBACK_COUNTER, SweepSession
from repro.memsys.multisim import MultiConfigSimulator, simulate_miss_curve
from repro.memsys.stream import simulate_miss_curve_stream

GOLDENS = Path(__file__).parents[1] / "figures" / "goldens"


@pytest.fixture(autouse=True)
def _fast_path_on(monkeypatch):
    """Every test here but the switched-off one runs with the fast path
    on, whatever the environment says."""
    monkeypatch.setenv("JMMW_FASTPATH", "1")


needs_kernel = pytest.mark.skipif(
    not fastpath_coherence.kernel_available(),
    reason="the compiled kernel is unavailable (no C compiler?)",
)

_REFS = st.lists(
    st.builds(
        encode_ref,
        st.integers(min_value=0, max_value=0xFFFF),
        st.sampled_from([IFETCH, LOAD, STORE]),
    ),
    max_size=600,
)

_GEOMETRY = st.builds(
    lambda n_sets, assoc, block: CacheConfig(
        size=n_sets * assoc * block, assoc=assoc, block=block
    ),
    st.sampled_from([1, 2, 4, 16, 64]),
    st.integers(min_value=1, max_value=16),
    st.sampled_from([32, 64, 128]),
)


def reference_points(configs, kind, trace, warmup_fraction):
    """The scalar simulators over the whole trace, split at the warmup."""
    sim = MultiConfigSimulator(configs, kind=kind, warmup_fraction=warmup_fraction)
    split = int(trace.size * warmup_fraction)
    sim.replay(trace[:split])
    sim.mark_warm()
    sim.replay(trace[split:])
    return sim.results()


def compiled_points(configs, kind, trace, cuts, warmup_fraction):
    """The compiled step fed ``trace`` cut at ``cuts``."""
    session = SweepSession.begin(configs, kind)
    assert session is not None
    split = int(trace.size * warmup_fraction)
    bounds = [0, *sorted(cuts), trace.size]
    for lo, hi in zip(bounds, bounds[1:]):
        session.feed(trace[lo:hi], min(max(split - lo, 0), hi - lo))
    return session.points()


@st.composite
def sweeps(draw):
    """A trace, a warmup fraction, and cuts that include empty chunks
    and, when the warmup window has room, a boundary inside it."""
    trace = np.asarray(draw(_REFS), dtype=np.uint64)
    warmup = draw(st.sampled_from([0.0, 0.25, 0.5, 0.9]))
    n = int(trace.size)
    cuts = draw(st.lists(st.integers(min_value=0, max_value=n), max_size=6))
    split = int(n * warmup)
    if split > 1:
        cuts.append(draw(st.integers(min_value=1, max_value=split - 1)))
    return trace, warmup, cuts


@needs_kernel
@settings(max_examples=60, deadline=None)
@given(
    sweep=sweeps(),
    configs=st.lists(_GEOMETRY, min_size=1, max_size=5),
    kind=st.sampled_from(["instr", "data"]),
)
def test_compiled_sweep_matches_reference(sweep, configs, kind):
    """Complete point vectors, every geometry, any chunking."""
    trace, warmup, cuts = sweep
    want = reference_points(configs, kind, trace, warmup)
    assert compiled_points(configs, kind, trace, cuts, warmup) == want
    # Cut again with each boundary doubled: every chunk then has an
    # empty twin.
    assert compiled_points(configs, kind, trace, cuts * 2, warmup) == want


@needs_kernel
@settings(max_examples=30, deadline=None)
@given(sweep=sweeps(), kind=st.sampled_from(["instr", "data"]))
def test_stream_sweep_matches_reference_through_the_public_path(sweep, kind):
    trace, warmup, cuts = sweep
    bounds = [0, *sorted(cuts), trace.size]
    chunks = [trace[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    sizes = [1024, 4096, 16384]
    scalar = obs.COUNTERS.get("memsys/multisim/scalar_replays")
    got = simulate_miss_curve_stream(
        chunks, int(trace.size), sizes, kind=kind, assoc=2,
        warmup_fraction=warmup, fastpath=True,
    )
    assert obs.COUNTERS.get("memsys/multisim/scalar_replays") == scalar
    want = simulate_miss_curve(
        trace, sizes, kind=kind, assoc=2, warmup_fraction=warmup, fastpath=False
    )
    assert got == want


@needs_kernel
@pytest.mark.parametrize("kind", ["instr", "data"])
@pytest.mark.parametrize("warmup", [0.0, 0.5])
def test_empty_trace(kind, warmup):
    empty = np.zeros(0, dtype=np.uint64)
    configs = [CacheConfig(size=4096, assoc=4, block=64)]
    got = compiled_points(configs, kind, empty, [0, 0], warmup)
    assert got == reference_points(configs, kind, empty, warmup)
    assert (got[0].accesses, got[0].misses, got[0].mpki) == (0, 0, 0.0)


@needs_kernel
def test_feed_checks_its_chunk():
    """A strided chunk is copied contiguous; a warm count past the
    chunk or a chunk that is not one-dimensional is refused."""
    trace = np.asarray([encode_ref(a * 64, LOAD) for a in range(200)], dtype=np.uint64)
    configs = [CacheConfig(size=1024, assoc=2, block=64)]
    session = SweepSession.begin(configs, "data")
    session.feed(trace[::2], 0)
    assert session.points() == reference_points(configs, "data", trace[::2].copy(), 0.0)
    for chunk, warm in ((trace[:5], 6), (trace[:5], -1), (trace[:6].reshape(2, 3), 0)):
        with pytest.raises(ConfigError):
            session.feed(chunk, warm)


# -- degraded modes: the reference runs, the figures do not move ---------------


def _figures_stdout(capsys) -> tuple[str, str]:
    assert main(["figures", "fig12", "fig13", "--quick", "--no-cache"]) == 0
    captured = capsys.readouterr()
    return captured.out, captured.err


def _golden() -> str:
    return "".join(
        (GOLDENS / f"{fig}.quick.txt").read_text(encoding="utf-8")
        for fig in ("fig12", "fig13")
    )


def _sweep_fallbacks() -> dict:
    return {
        name: n for name, n in obs.COUNTERS.snapshot().items()
        if name.startswith(SWEEP_FALLBACK_COUNTER)
    }


def test_no_kernel_runs_the_reference_with_unchanged_figures(monkeypatch, capsys):
    monkeypatch.setattr(fastpath_coherence, "_load_library", lambda: None)
    out, err = _figures_stdout(capsys)
    assert out == _golden()
    # Four workload configurations, one sweep each per figure.
    assert _sweep_fallbacks() == {f"{SWEEP_FALLBACK_COUNTER}/no-kernel": 8}
    assert (
        "note: 8 miss-curve sweep(s) ran the scalar reference: the compiled "
        "kernel is unavailable (no C compiler?)"
    ) in err.splitlines()


def test_fastpath_off_never_asks_the_kernel(monkeypatch, capsys):
    def refuse():
        raise AssertionError("kernel library loaded under JMMW_FASTPATH=0")

    monkeypatch.setenv("JMMW_FASTPATH", "0")
    monkeypatch.setattr(fastpath_coherence, "_load_library", refuse)
    out, err = _figures_stdout(capsys)
    assert out == _golden()
    assert _sweep_fallbacks() == {}
    assert "note:" not in err


def sweep_spans() -> list[str]:
    return [
        span["sweep"] for span in obs.SPANS.finished
        if span["span"] == "memsys/miss_curve"
    ]


_SPAN_TRACE = np.asarray(
    [encode_ref(a * 64, k) for a in range(40) for k in (IFETCH, LOAD)],
    dtype=np.uint64,
)


def test_sweep_span_names_the_reference_without_a_kernel(monkeypatch, obs_enabled):
    monkeypatch.setattr(fastpath_coherence, "_load_library", lambda: None)
    simulate_miss_curve(_SPAN_TRACE, [1024], kind="data", fastpath=True)
    assert sweep_spans() == ["reference"]


@needs_kernel
def test_sweep_span_names_the_kernel(obs_enabled):
    simulate_miss_curve(_SPAN_TRACE, [1024], kind="data", fastpath=True)
    assert sweep_spans() == ["kernel"]


@needs_kernel
def test_alloc_decline_runs_the_reference_before_any_chunk(monkeypatch):
    """A geometry the step cannot allocate declines before the first
    chunk is consumed, so the reference sees the whole stream."""
    lib = fastpath_coherence._load_library()
    monkeypatch.setattr(lib, "jmmw_sweep_new", lambda *args: None)
    trace = np.asarray(
        [encode_ref(a * 64, k) for a in range(40) for k in (IFETCH, LOAD)] * 3,
        dtype=np.uint64,
    )

    def chunks():
        # Decided before the first chunk is drawn.
        assert _sweep_fallbacks() == {f"{SWEEP_FALLBACK_COUNTER}/alloc": 1}
        yield trace[:100]
        yield trace[100:]

    got = simulate_miss_curve_stream(
        chunks(), int(trace.size), [1024, 2048], kind="data", assoc=2, fastpath=True
    )
    assert obs.COUNTERS.get("memsys/multisim/scalar_replays") == 1
    assert got == simulate_miss_curve(
        trace, [1024, 2048], kind="data", assoc=2, fastpath=False
    )
