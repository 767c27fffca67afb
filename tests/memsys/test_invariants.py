"""Runtime model invariants: clean runs pass, injected corruption is caught."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError, InvariantViolation
from repro.memsys.cache import CLEAN
from repro.memsys.coherence import State
from repro.memsys.config import CacheConfig, MachineConfig
from repro.memsys.hierarchy import MemoryHierarchy
from repro.memsys.invariants import (
    CHECK_ENV,
    SAMPLE_ENV,
    InvariantChecker,
    checking_enabled,
    sample_period,
)
from repro.memsys.stream import TraceStream

#: Tiny caches so short traces still trigger evictions, upgrades and
#: cross-cache sharing — the paths an invariant checker must survive.
TINY = MachineConfig(
    n_procs=2,
    l1i=CacheConfig(size=256, assoc=2, block=32, name="L1I"),
    l1d=CacheConfig(size=256, assoc=2, block=32, name="L1D"),
    l2=CacheConfig(size=1024, assoc=2, block=64, name="L2"),
)


def _ref(addr: int, kind: int) -> int:
    return (addr << 2) | kind


refs = st.builds(
    _ref,
    st.integers(min_value=0, max_value=2047),
    st.integers(min_value=0, max_value=2),
)
trace_pair = st.tuples(
    st.lists(refs, max_size=120), st.lists(refs, max_size=120)
)


def _checked(protocol: str = "mosi", **kwargs) -> MemoryHierarchy:
    return MemoryHierarchy(
        TINY, protocol=protocol, check_invariants=True, check_sample=1, **kwargs
    )


# -- property: the model never violates its own invariants -------------------


@settings(max_examples=40, deadline=None)
@given(traces=trace_pair, protocol=st.sampled_from(["mosi", "msi", "mesi"]))
def test_random_traces_produce_zero_violations(traces, protocol):
    """Every access of every random trace passes the full check."""
    h = _checked(protocol)
    h.run_trace(list(traces), quantum=7)
    assert h.checker.checks_run >= 1


@settings(max_examples=15, deadline=None)
@given(traces=trace_pair)
def test_shared_l2_and_no_l1_variants_hold(traces):
    shared = MachineConfig(
        n_procs=2,
        l1i=TINY.l1i,
        l1d=TINY.l1d,
        l2=TINY.l2,
        procs_per_l2=2,
    )
    MemoryHierarchy(shared, check_invariants=True, check_sample=1).run_trace(
        list(traces)
    )
    h = MemoryHierarchy(
        TINY, include_l1=False, check_invariants=True, check_sample=1
    )
    h.run_trace(list(traces))


# -- deliberate corruption is detected ---------------------------------------


def _warm_hierarchy() -> MemoryHierarchy:
    h = _checked()
    h.run_trace([[_ref(a * 64, a % 3) for a in range(40)],
                 [_ref(a * 64, (a + 1) % 3) for a in range(40)]])
    return h


def test_two_modified_copies_are_caught():
    h = _warm_hierarchy()
    bus = h.bus
    block = next(iter(bus.mirrored_blocks()))
    holder = next(iter(bus.holder_ids(block)))
    bus.caches[holder].set_state(block, State.MODIFIED)
    other = (holder + 1) % len(bus.caches)
    bus.caches[other].insert(block, State.MODIFIED)
    with pytest.raises(InvariantViolation):
        h.check_invariants()


def test_holders_mirror_drift_is_caught():
    h = _warm_hierarchy()
    bus = h.bus
    block = next(iter(bus.mirrored_blocks()))
    holder = next(iter(bus.holder_ids(block)))
    bus._holders[block].discard(holder)
    bus._holders[block].add(holder ^ 1)
    with pytest.raises(InvariantViolation) as excinfo:
        h.check_invariants()
    assert "mirror" in str(excinfo.value)


def test_stale_l1_line_breaks_inclusion():
    h = _warm_hierarchy()
    # An L1 line whose L2 block cannot be resident (address far outside
    # everything the trace touched).
    h._l1d[0].insert(0xDEAD00, CLEAN)
    with pytest.raises(InvariantViolation) as excinfo:
        h.check_invariants()
    assert "inclusion" in str(excinfo.value)


def test_stats_tampering_breaks_conservation():
    h = _warm_hierarchy()
    h.proc_stats[0].l2_misses += 1
    with pytest.raises(InvariantViolation):
        h.check_invariants()


def test_violation_carries_diagnostic_dump():
    h = _warm_hierarchy()
    bus = h.bus
    block = next(iter(bus.mirrored_blocks()))
    bus._holders[block].add(5)  # a cache id that does not exist
    with pytest.raises(InvariantViolation) as excinfo:
        h.check_invariants()
    exc = excinfo.value
    assert exc.dump
    assert "recorded accesses" in exc.dump
    assert f"{block:#x}" in exc.dump  # per-cache state of the offender


def test_checker_detects_violation_mid_trace():
    """A violation surfaces at the access that exposes it, not at the end."""
    h = _checked()
    h.run_trace([[_ref(a * 64, 1) for a in range(10)], []])
    h.proc_stats[0].loads += 1  # corrupt between replays
    with pytest.raises(InvariantViolation):
        h.run_trace([[_ref(0, 1)], []])


# -- sampling and configuration ----------------------------------------------


def test_sampling_period_counts_checks():
    h = MemoryHierarchy(TINY, check_invariants=True, check_sample=16)
    traces = [[_ref(a * 64, 1) for a in range(32)], []]
    h.run_trace(traces)
    # 32 accesses at period 16 -> 2 sampled checks + 1 end-of-trace.
    assert h.checker.checks_run == 3


@pytest.mark.parametrize("as_stream", [False, True])
def test_warmup_replay_runs_full_check_after_each_phase(as_stream):
    # A sampling period the trace never reaches: only the guaranteed
    # per-phase checks run, one after warmup and one after measurement.
    h = MemoryHierarchy(TINY, check_invariants=True, check_sample=10**9)
    traces = [[_ref(a * 64, 1) for a in range(32)], []]
    if as_stream:
        traces = TraceStream.from_arrays(traces, chunk_refs=5)
    h.run_trace(traces, warmup_fraction=0.5)
    assert h.checker.checks_run == 2


def test_checker_rejects_bad_parameters():
    h = MemoryHierarchy(TINY)
    with pytest.raises(ConfigError):
        InvariantChecker(h, sample_every=0)
    with pytest.raises(ConfigError):
        InvariantChecker(h, sample_every=1, history=0)


def test_env_gating(monkeypatch):
    monkeypatch.delenv(CHECK_ENV, raising=False)
    assert not checking_enabled()
    assert MemoryHierarchy(TINY).checker is None
    monkeypatch.setenv(CHECK_ENV, "1")
    assert checking_enabled()
    h = MemoryHierarchy(TINY)
    assert h.checker is not None
    # Explicit constructor choice beats the environment.
    assert MemoryHierarchy(TINY, check_invariants=False).checker is None


def test_sample_period_env(monkeypatch):
    monkeypatch.delenv(SAMPLE_ENV, raising=False)
    assert sample_period() == 8192
    monkeypatch.setenv(SAMPLE_ENV, "64")
    assert sample_period() == 64
    monkeypatch.setenv(SAMPLE_ENV, "zero")
    with pytest.raises(ConfigError):
        sample_period()
    monkeypatch.setenv(SAMPLE_ENV, "0")
    with pytest.raises(ConfigError):
        sample_period()


def test_unchecked_hierarchy_supports_on_demand_check():
    # Pin checking off so the test holds under JMMW_CHECK=1 (CI runs
    # the suite both ways).
    h = MemoryHierarchy(TINY, check_invariants=False)
    assert h.checker is None
    h.run_trace([[_ref(a * 64, 0) for a in range(20)], []])
    h.check_invariants()  # builds a one-shot checker; no violation
