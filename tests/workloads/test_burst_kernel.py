"""The compiled burst step against the Python reference, step by step.

``StreamBuilder.code_burst`` runs one call of the compiled step
(``jmmw_burst`` in the coherence kernel's library) when it can serve,
and ``StreamBuilder.reference_burst`` (``CodeLayout.burst`` plus the
burst's loads and stores) otherwise.  Both draw from the builder's own
generator through numpy's samplers, so after every step the two
builders must hold the same references, instruction count,
continuation and frame cursor, and their generators the same state,
down to PCG64's buffered 32-bit half.

Also here: a seeded burst defect, which must break this parity and the
recorded generation digests, and the degraded modes (no compiler, no
``libnpyrandom.a``, ``JMMW_FASTPATH=0``), in which the digests must not
move.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_generation_parity import CASES, DIGESTS, trace_digest

from repro import obs
from repro.appserver.container import CodeRegionSpec
from repro.harness.traceplane import TraceSpec
from repro.memsys import fastpath_coherence
from repro.memsys.fastpath_coherence import (
    BURST_DECLINE,
    BURST_DEFECT_NO_REENTRY,
    BURST_FALLBACK_COUNTER,
    F_RC,
    npyrandom_step_declines,
)
from repro.rng import RngFactory
from repro.workloads.base import StreamBuilder
from repro.workloads.codepath import CODE_REGION_BASE, CodeLayout, jvm_runtime_regions

@pytest.fixture(autouse=True)
def _fast_path_on(monkeypatch):
    """Every test here but the switched-off one runs with the fast path
    on, whatever the environment says."""
    monkeypatch.setenv("JMMW_FASTPATH", "1")


needs_burst_step = pytest.mark.skipif(
    npyrandom_step_declines() is not None,
    reason=f"code bursts run in Python here: {npyrandom_step_declines()}",
)


def state(builder: StreamBuilder) -> tuple:
    """Everything a burst may change, generator state included."""
    return (
        builder.refs,
        builder.instructions,
        builder._code_prev,
        builder._frame_cursor,
        builder.rng.bit_generator.state,
    )


def pair(seed: int, stack_base: int = 0xF000_0000):
    """A builder on the compiled step (the bursts it served counted)
    and one that runs the reference, on equal generators."""
    fast = StreamBuilder(np.random.default_rng(seed), stack_base)
    reference = StreamBuilder(np.random.default_rng(seed), stack_base)
    frame = fast._burst_frame
    assert frame is not None
    served = []
    run = frame.run

    def counted() -> None:
        run()
        if frame.ints[F_RC] != BURST_DECLINE:
            served.append(1)

    frame.run = counted
    return fast, reference, served


# -- hypothesis differential ------------------------------------------------

layouts = st.builds(
    lambda sizes, hotness, locality, skew, base: CodeLayout(
        [
            CodeRegionSpec(f"r{i}", instructions=n, hotness=h)
            for i, (n, h) in enumerate(zip(sizes, hotness))
        ],
        base=base,
        locality=locality,
        offset_skew=skew,
    ),
    sizes=st.lists(st.integers(1, 3000), min_size=1, max_size=12),
    hotness=st.lists(st.floats(0.01, 50.0), min_size=12, max_size=12),
    locality=st.floats(0.0, 0.99),
    skew=st.floats(0.1, 6.0),
    base=st.sampled_from([0, 0x40, CODE_REGION_BASE]),
)

means = st.one_of(st.integers(1, 400), st.floats(0.5, 300.0), st.just(4096))

steps = st.lists(
    st.one_of(
        st.tuples(st.just("burst"), st.integers(0, 1), means),
        st.tuples(st.just("set_stack"), st.integers(0, 2**40)),
        # Python draws between bursts: floats, 32-bit bounded draws (an
        # odd count leaves PCG64's other half buffered), 64-bit ones.
        st.tuples(
            st.just("draw"),
            st.sampled_from(["random", "int32", "int64"]),
            st.integers(1, 3),
        ),
    ),
    min_size=1,
    max_size=40,
)


def draw(rng: np.random.Generator, kind: str, n: int) -> None:
    for _ in range(n):
        if kind == "random":
            rng.random()
        elif kind == "int32":
            rng.integers(0, 10)
        else:
            rng.integers(0, 2**40)


@needs_burst_step
@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    pair_of_layouts=st.tuples(layouts, layouts),
    stack_base=st.integers(0, 2**40),
    script=steps,
)
def test_kernel_step_matches_reference_step(seed, pair_of_layouts, stack_base, script):
    fast, reference, served = pair(seed, stack_base)
    bursts = crossed = 0
    for step in script:
        if step[0] == "burst":
            _, which, mean = step
            layout = pair_of_layouts[which]
            # A continuation in the other layout's segment is the
            # reference's to draw.
            prev = fast._code_prev
            if prev is not None and prev[0] not in layout.segments:
                crossed += 1
            bursts += 1
            fast.code_burst(layout, mean)
            reference.reference_burst(layout, mean)
        elif step[0] == "set_stack":
            fast.set_stack(step[1])
            reference.set_stack(step[1])
        else:
            _, kind, n = step
            draw(fast.rng, kind, n)
            draw(reference.rng, kind, n)
        assert state(fast) == state(reference), step
    assert len(served) == bursts - crossed


@needs_burst_step
@pytest.mark.parametrize("mean", [90, 140, 150])
def test_kernel_step_on_workload_layouts(mean):
    """The three workloads' means, over a long run of one layout."""
    fast, reference, served = pair(7)
    layout = CodeLayout(jvm_runtime_regions(), locality=0.7, offset_skew=2.0)
    for i in range(600):
        if i % 17 == 0:
            fast.set_stack(0xF000_0000 + 0x1000 * i)
            reference.set_stack(0xF000_0000 + 0x1000 * i)
        fast.code_burst(layout, mean)
        reference.reference_burst(layout, mean)
    assert state(fast) == state(reference)
    assert len(served) == 600
    # Repeated loop fetches share one int object, as the reference's do.
    assert len({id(r) for r in fast.refs}) < len(fast.refs)


@needs_burst_step
def test_set_stack_breaks_the_continuation():
    """After a context switch the next burst starts fresh on both
    steps: it draws exactly what a builder with no history draws."""
    layout = CodeLayout(jvm_runtime_regions(), locality=0.95)
    fast, _, _ = pair(3)
    for _ in range(5):
        fast.code_burst(layout, 100)
    assert fast._code_prev is not None
    fast.set_stack(0xE000_0000)
    assert fast._code_prev is None
    fresh = StreamBuilder(np.random.default_rng(0), 0xE000_0000)
    fresh.rng.bit_generator.state = fast.rng.bit_generator.state
    fresh._frame_cursor = fast._frame_cursor
    start = len(fast.refs)
    fast.code_burst(layout, 100)
    fresh.reference_burst(layout, 100)
    assert fast.refs[start:] == fresh.refs
    assert fast._code_prev == fresh._code_prev
    assert fast.rng.bit_generator.state == fresh.rng.bit_generator.state


@needs_burst_step
def test_beyond_the_frame_runs_the_reference():
    """Means past the buffer's bound, non-positive means and stack
    windows past the packed encoding run the reference step."""
    layout = CodeLayout(jvm_runtime_regions())
    for mean, stack_base in [(5000, 0), (0, 0), (100, 1 << 61), (100, 1 << 64)]:
        fast, reference, served = pair(5, stack_base)
        for step in (fast.code_burst, reference.reference_burst):
            try:
                step(layout, mean)
            except OverflowError:
                pass  # the reference's own verdict on a window this large
        assert served == []
        assert state(fast) == state(reference)


# -- the reference's checks hold on the kernel path -------------------------


@pytest.mark.parametrize("path", ["code_burst", "reference_burst"])
def test_negative_stack_address_raises_after_the_slot_draw(path):
    """Both steps raise ``encode_ref``'s error, with the fetches, the
    instruction count, the continuation, the cursor and the slot draw
    already made, exactly as the reference leaves them."""
    layout = CodeLayout(jvm_runtime_regions())
    b = StreamBuilder(np.random.default_rng(11), stack_base=-0x1000)
    with pytest.raises(ValueError, match="negative address -0x1000"):
        getattr(b, path)(layout)
    ref = StreamBuilder(np.random.default_rng(11), stack_base=-0x1000)
    with pytest.raises(ValueError, match="negative address -0x1000"):
        ref.reference_burst(layout)
    assert state(b) == state(ref)
    assert b.refs and b.instructions and b._frame_cursor == 1


@pytest.mark.parametrize("path", ["code_burst", "reference_burst"])
def test_negative_fetch_address_raises_before_the_slot_draw(path):
    specs = [CodeRegionSpec("r", instructions=64)]
    layout = CodeLayout(specs, base=-0x1000)
    b = StreamBuilder(np.random.default_rng(4))
    with pytest.raises(ValueError, match="negative address -0x"):
        getattr(b, path)(layout)
    ref = StreamBuilder(np.random.default_rng(4))
    with pytest.raises(ValueError, match="negative address -0x"):
        ref.reference_burst(layout)
    assert state(b) == state(ref)
    assert b.refs == [] and b.instructions == 0 and b._frame_cursor == 0


# -- the seeded burst defect -------------------------------------------------


@pytest.fixture
def burst_defect():
    fastpath_coherence.set_kernel_defect(BURST_DEFECT_NO_REENTRY)
    try:
        yield
    finally:
        fastpath_coherence.set_kernel_defect(0)


@needs_burst_step
def test_seeded_burst_defect_breaks_parity(burst_defect):
    """Skipping the loop re-entry must show within a few bursts."""
    layout = CodeLayout(jvm_runtime_regions(), locality=0.9)
    fast, reference, _ = pair(21)
    for _ in range(50):
        fast.code_burst(layout, 100)
        reference.reference_burst(layout, 100)
    assert state(fast) != state(reference)


@needs_burst_step
@pytest.mark.parametrize(
    "case_id", ["specjbb-p1-s1234-quick", "ecperf-p1-s1234-quick", "volanomark-p1-s1234-quick"]
)
def test_seeded_burst_defect_moves_the_generation_digests(case_id, burst_defect):
    assert _digest(case_id) != DIGESTS[case_id]


# -- degraded modes: the digests do not move ---------------------------------

#: Recorded cases regenerated in each degraded mode (all three
#: workloads, one and several processors, fig12's scaled SPECjbb).
DEGRADED_CASES = [
    "specjbb-p2-s1234-quick",
    "ecperf-p2-s1235-quick",
    "fig12-specjbb-x10-p1-quick",
    "volanomark-p4-s1234-quick",
]


def _bundle(case_id: str):
    case = CASES[case_id]
    return case.make().generate(case.n_procs, case.sim, RngFactory(seed=case.sim.seed))


def _digest(case_id: str) -> str:
    bundle = _bundle(case_id)
    return trace_digest(([t] for t in bundle.per_cpu), bundle.instructions)


def _assert_digests_hold() -> None:
    for case_id in DEGRADED_CASES:
        assert _digest(case_id) == DIGESTS[case_id], case_id


def _trace_gen_span() -> dict:
    """Generate one trace through ``TraceSpec``; its span record."""
    TraceSpec("specjbb", 2, 2, CASES["specjbb-p2-s1234-quick"].sim).generate()
    (span,) = [s for s in obs.SPANS.finished if s["span"] == "workload/trace-gen"]
    return span


def _burst_fallbacks() -> dict:
    return {
        name: n for name, n in obs.COUNTERS.snapshot().items()
        if name.startswith(BURST_FALLBACK_COUNTER)
    }


@pytest.fixture
def fresh_library(monkeypatch, tmp_path):
    """The kernel library as if this process had never loaded it, with
    an empty build cache."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(fastpath_coherence, "_lib", None)
    monkeypatch.setattr(fastpath_coherence, "_lib_tried", False)
    return monkeypatch


def test_no_compiler_generates_the_recorded_traces(fresh_library, obs_enabled):
    fresh_library.setattr(fastpath_coherence, "_find_compiler", lambda: None)
    assert npyrandom_step_declines() == "no-kernel"
    assert not fastpath_coherence.kernel_available()
    _assert_digests_hold()
    assert _trace_gen_span()["bursts"] == "reference"
    # Counted once for the trace, not per processor or per burst.
    assert _burst_fallbacks() == {f"{BURST_FALLBACK_COUNTER}/no-kernel": 1}


@needs_burst_step
def test_no_npyrandom_keeps_the_coherence_kernel(fresh_library, obs_enabled):
    from repro.memsys.config import e6000_machine
    from repro.memsys.hierarchy import MemoryHierarchy

    fresh_library.setattr(fastpath_coherence, "_npyrandom_archive", lambda: None)
    assert npyrandom_step_declines() == "no-npyrandom"
    _assert_digests_hold()
    assert _trace_gen_span()["bursts"] == "reference"
    assert _burst_fallbacks() == {f"{BURST_FALLBACK_COUNTER}/no-npyrandom": 1}
    traces = _bundle("specjbb-p2-s1234-quick").per_cpu
    MemoryHierarchy(e6000_machine(2)).run_trace(traces)
    assert obs.COUNTERS.get("memsys/fastpath/coherent_replay") == 1


def test_fastpath_off_never_asks_the_kernel(monkeypatch, obs_enabled):
    def refuse():
        raise AssertionError("kernel library loaded under JMMW_FASTPATH=0")

    monkeypatch.setenv("JMMW_FASTPATH", "0")
    monkeypatch.setattr(fastpath_coherence, "_load_library", refuse)
    _assert_digests_hold()
    assert _trace_gen_span()["bursts"] == "reference"
    assert _burst_fallbacks() == {}


@needs_burst_step
def test_trace_gen_span_names_the_kernel(obs_enabled):
    assert _trace_gen_span()["bursts"] == "kernel"
    assert _burst_fallbacks() == {}
