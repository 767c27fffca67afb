"""Compiled coherence kernel vs. the scalar hierarchy (bit-identical).

The parity contract is *full machine state*, not just headline
counters: per-CPU :class:`ProcessorStats`, bus and per-cache side
counters, the per-line C2C footprint, the holders mirror, the miss
classifiers' history sets, the L1-internal counters, and every cache's
contents **in LRU order** (dict equality ignores insertion order, so
the comparisons use ``list(d.items())`` per set).

Adversarial sharing patterns target the protocol paths a uniform
random trace rarely stresses: migratory lines (M→c2c→upgrade cycles),
producer-consumer (stable dirty supplier), false sharing (distinct
words, one block) and all-CPUs-one-block contention.

The seeded-defect tests prove the gates fail loudly: a kernel bug in
MSI copyback crediting trips the InvariantChecker conservation
identity, and a kernel bug in LRU maintenance diverges from the scalar
replay.

The kernel hands its final caches, holders mirror and classifier
history back as arrays, built into Python structures on first read:
the laziness tests pin that a kernel-served replay and a fresh
hierarchy build none of them, and ``full_state`` (which reads them
all) is the equality check on what the builders produce.

Every kernel replay here goes through ``MemoryHierarchy.run_trace``
and asserts, via the ``memsys/fastpath/coherent_replay`` counter, that
the kernel served it; routing tests patch ``KernelSession.begin``, the
one place the kernel accepts or declines a replay.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.errors import InvariantViolation
from repro.memsys import fastpath, fastpath_coherence
from repro.memsys.block import IFETCH, LOAD, STORE, encode_ref
from repro.memsys.cache import CLEAN, SetAssociativeCache
from repro.memsys.coherence import State
from repro.memsys.config import CacheConfig, MachineConfig, e6000_machine
from repro.memsys.hierarchy import MemoryHierarchy

needs_kernel = pytest.mark.skipif(
    not fastpath_coherence.kernel_available(),
    reason="no C compiler available to build the coherence kernel",
)

PROTOCOLS = ("mosi", "msi", "mesi")


def small_machine(n_procs: int = 4, procs_per_l2: int = 1) -> MachineConfig:
    """Tiny caches so short traces still evict, share and write back."""
    return MachineConfig(
        n_procs=n_procs,
        l1i=CacheConfig(size=1024, assoc=2, block=32, name="L1I"),
        l1d=CacheConfig(size=1024, assoc=2, block=32, name="L1D"),
        l2=CacheConfig(size=4096, assoc=4, block=64, name="L2"),
        procs_per_l2=procs_per_l2,
    )


def full_state(h: MemoryHierarchy):
    """Everything the scalar replay leaves behind, LRU order included."""
    return (
        [vars(s) for s in h.proc_stats],
        vars(h.bus.stats),
        [vars(s) for s in h.bus.cache_stats],
        h.bus._holders,
        [(c._ever_held, c._invalidated) for c in h.bus.classifiers],
        [
            [list(line_set.items()) for line_set in cache._sets]
            for cache in list(h.bus.caches) + h._l1i + h._l1d
        ],
        [(vars(i.stats), vars(d.stats)) for i, d in zip(h._l1i, h._l1d)],
    )


SERVED = "memsys/fastpath/coherent_replay"


def unchecked(machine, **kwargs) -> MemoryHierarchy:
    """A hierarchy the kernel may serve even when the suite runs under
    ``JMMW_CHECK=1``: an attached checker keeps every replay scalar."""
    return MemoryHierarchy(machine, check_invariants=False, **kwargs)


def kernel_replay(hierarchy, traces, warmup_fraction=0.0):
    """Replay through ``run_trace``'s fast path; the kernel must serve it."""
    before = obs.COUNTERS.get(SERVED)
    hierarchy.run_trace(
        traces, quantum=64, warmup_fraction=warmup_fraction, fastpath=True
    )
    assert obs.COUNTERS.get(SERVED) == before + 1, (
        "kernel unexpectedly declined a cold replay"
    )


def replay_both(machine, traces, protocol="mosi", warmup_fraction=0.0):
    """Scalar and kernel replays of the same traces; returns both."""
    scalar = MemoryHierarchy(machine, protocol=protocol)
    scalar.run_trace(
        traces, quantum=64, warmup_fraction=warmup_fraction, fastpath=False
    )
    fast = unchecked(machine, protocol=protocol)
    kernel_replay(fast, traces, warmup_fraction)
    return scalar, fast


# -- adversarial sharing patterns ------------------------------------------


def migratory_traces(n_procs: int, n_blocks: int = 24, rounds: int = 12):
    """Every CPU read-modify-writes every block, in phase-shifted order."""
    out = []
    for cpu in range(n_procs):
        refs = []
        for r in range(rounds):
            for i in range(n_blocks):
                addr = ((i + cpu + r) % n_blocks) * 64
                refs.append(encode_ref(addr, LOAD))
                refs.append(encode_ref(addr, STORE))
        out.append(refs)
    return out


def producer_consumer_traces(n_procs: int, n_blocks: int = 16, rounds: int = 30):
    """CPU 0 writes a buffer ring; everyone else polls it."""
    out = []
    for cpu in range(n_procs):
        refs = []
        for r in range(rounds):
            for i in range(n_blocks):
                addr = i * 64
                kind = STORE if cpu == 0 else LOAD
                refs.append(encode_ref(addr, kind))
        out.append(refs)
    return out


def false_sharing_traces(n_procs: int, rounds: int = 150):
    """Each CPU stores its own word of the same 64-byte line."""
    return [
        [encode_ref(cpu * 8, STORE) for _ in range(rounds)]
        for cpu in range(n_procs)
    ]


def one_block_traces(n_procs: int, rounds: int = 150):
    """All CPUs load and store the same block."""
    return [
        [
            encode_ref(0, LOAD if (cpu + r) % 2 else STORE)
            for r in range(rounds)
        ]
        for cpu in range(n_procs)
    ]


PATTERNS = [
    ("migratory", migratory_traces),
    ("producer-consumer", producer_consumer_traces),
    ("false-sharing", false_sharing_traces),
    ("one-block", one_block_traces),
]


@needs_kernel
@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("pattern", [name for name, _ in PATTERNS])
def test_adversarial_sharing_parity(protocol, pattern):
    make = dict(PATTERNS)[pattern]
    traces = make(4)
    for procs_per_l2 in (1, 2):
        machine = small_machine(4, procs_per_l2)
        scalar, fast = replay_both(machine, traces, protocol=protocol)
        assert full_state(fast) == full_state(scalar)


@needs_kernel
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_warmup_discard_parity(protocol):
    traces = migratory_traces(4)
    scalar, fast = replay_both(
        small_machine(4), traces, protocol=protocol, warmup_fraction=0.5
    )
    assert full_state(fast) == full_state(scalar)


@needs_kernel
def test_no_l1_parity():
    traces = producer_consumer_traces(4)
    machine = small_machine(4)
    scalar = MemoryHierarchy(machine, include_l1=False)
    scalar.run_trace(traces, fastpath=False)
    fast = unchecked(machine, include_l1=False)
    kernel_replay(fast, traces)
    assert full_state(fast) == full_state(scalar)


@needs_kernel
def test_untracked_lines_parity():
    traces = migratory_traces(4)
    machine = small_machine(4)
    scalar = MemoryHierarchy(machine, track_lines=False)
    scalar.run_trace(traces, fastpath=False)
    fast = unchecked(machine, track_lines=False)
    kernel_replay(fast, traces)
    assert full_state(fast) == full_state(scalar)
    assert fast.bus.stats.c2c_by_line == {}
    assert fast.bus.stats.touched_lines == set()


# -- hypothesis differential ------------------------------------------------


def random_traces(seed: int, n_procs: int, n: int, n_blocks: int):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n_procs):
        kinds = rng.choice([IFETCH, LOAD, STORE], size=n, p=[0.3, 0.45, 0.25])
        addrs = rng.integers(0, n_blocks, size=n) * 32
        out.append(
            [encode_ref(int(a), int(k)) for a, k in zip(addrs, kinds)]
        )
    return out


@needs_kernel
@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    protocol=st.sampled_from(PROTOCOLS),
    procs_per_l2=st.sampled_from([1, 2]),
    warmup=st.sampled_from([0.0, 0.5]),
)
def test_random_traffic_parity(seed, protocol, procs_per_l2, warmup):
    traces = random_traces(seed, 4, 1500, 96)
    machine = small_machine(4, procs_per_l2)
    scalar, fast = replay_both(
        machine, traces, protocol=protocol, warmup_fraction=warmup
    )
    assert full_state(fast) == full_state(scalar)


@needs_kernel
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_invariants_hold_after_kernel_replay(protocol):
    fast = unchecked(small_machine(4), protocol=protocol)
    kernel_replay(fast, migratory_traces(4))
    fast.check_invariants()
    fast.bus.check_invariants()


@needs_kernel
def test_kernel_state_carries_into_scalar_replay():
    """A kernel-warmed hierarchy must continue exactly like a scalar one."""
    first = migratory_traces(4)
    second = producer_consumer_traces(4)
    scalar = MemoryHierarchy(small_machine(4))
    scalar.run_trace(first, fastpath=False)
    scalar.run_trace(second, fastpath=False)
    mixed = unchecked(small_machine(4))
    kernel_replay(mixed, first)
    # Warm machine: the kernel declines, the scalar loop continues on
    # the imported state.
    mixed.run_trace(second, fastpath=True)
    assert full_state(mixed) == full_state(scalar)


# -- the final state is built on first read ----------------------------------


def built_structures(h: MemoryHierarchy) -> list[str]:
    """Which lazily built structures of ``h`` exist so far: a cache's
    ``_set_dicts`` is a plain list once built, the bus's ``_mirror`` and
    a classifier's ``_history`` are None until built."""
    built = [
        f"{name}[{i}]._set_dicts"
        for name, caches in (("L2", h.bus.caches), ("L1I", h._l1i), ("L1D", h._l1d))
        for i, cache in enumerate(caches)
        if type(cache._set_dicts) is list
    ]
    if h.bus._mirror is not None:
        built.append("bus._mirror")
    built += [
        f"classifiers[{i}]._history"
        for i, c in enumerate(h.bus.classifiers)
        if c._history is not None
    ]
    return built


@needs_kernel
def test_kernel_replay_builds_no_python_state():
    """A kernel-served replay copies counters and hands the rest over as
    arrays: no per-set dict, holders map or classifier set is built."""
    traces = random_traces(11, 8, 4000, 4096)
    fast = unchecked(e6000_machine(8))
    kernel_replay(fast, traces, warmup_fraction=0.5)
    assert built_structures(fast) == []
    assert fast.bus.stats.total_misses > 0
    assert fast.bus.stats.touched_lines
    assert not any(c.is_empty() for c in fast.bus.caches)
    assert built_structures(fast) == []
    # Reading builds exactly the scalar replay's state.
    scalar = MemoryHierarchy(e6000_machine(8))
    scalar.run_trace(traces, quantum=64, warmup_fraction=0.5, fastpath=False)
    assert full_state(fast) == full_state(scalar)


@needs_kernel
def test_built_state_has_scalar_types():
    """``State`` members on L2 lines, ``CLEAN`` on L1 lines, Python ints
    for blocks and cache ids: equality alone would let ``1 == SHARED``
    and numpy scalars through."""
    traces = migratory_traces(4)
    scalar, fast = replay_both(small_machine(4), traces)

    def types(h):
        lines = [
            (name, type(block), type(state), state == CLEAN)
            for name, caches in (("L2", h.bus.caches), ("L1", h._l1i + h._l1d))
            for cache in caches
            for line_set in cache._sets
            for block, state in line_set.items()
        ]
        holders = {
            (type(block), type(ids), *map(type, ids))
            for block, ids in h.bus._holders.items()
        }
        history = {
            type(block)
            for c in h.bus.classifiers
            for block in c._ever_held | c._invalidated
        }
        return sorted(set(lines), key=repr), holders, history

    assert types(fast) == types(scalar)
    lines, holders, history = types(fast)
    assert {(n, s) for n, _, s, _ in lines} == {("L2", State), ("L1", int)}
    assert all(clean for n, _, _, clean in lines if n == "L1")
    assert holders == {(int, set, int)} and history == {int}


def test_fresh_hierarchy_builds_no_per_set_dicts():
    """A fresh bus and classifiers start with their (cheap) empty
    structures; no cache builds its per-set dicts, not even ``_is_cold``."""
    h = MemoryHierarchy(e6000_machine(15), check_invariants=False)
    fresh = ["bus._mirror"] + [f"classifiers[{i}]._history" for i in range(15)]
    assert built_structures(h) == fresh
    assert fastpath_coherence._is_cold(h)
    assert built_structures(h) == fresh


def test_is_empty_reads_arrays_without_building():
    config = CacheConfig(size=512, assoc=2, block=64)  # 4 sets
    fresh = SetAssociativeCache(config)
    loaded_nothing = SetAssociativeCache(config)
    loaded_nothing.load_contents(
        np.zeros(4, dtype=np.int32), np.zeros(0, dtype=np.uint64)
    )
    loaded = SetAssociativeCache(config)
    loaded.load_contents(
        np.array([0, 2, 0, 0], dtype=np.int32), np.array([5, 1], dtype=np.uint64)
    )
    assert fresh.is_empty()
    assert loaded_nothing.is_empty()
    assert not loaded.is_empty()
    assert all(type(c._set_dicts) is not list for c in (fresh, loaded_nothing, loaded))
    # Set 1 holds 5 then 1, least recently used first.
    assert [list(s.items()) for s in loaded._sets] == [
        [], [(5, CLEAN), (1, CLEAN)], [], [],
    ]
    assert not loaded.is_empty()
    loaded.flush()
    assert loaded.is_empty()
    built = SetAssociativeCache(config)
    built.access(3, write=True)
    assert not built.is_empty()
    built.flush()
    assert built.is_empty() and built.occupancy() == 0


# -- seeded defects: the gates fail loudly ----------------------------------


@needs_kernel
def test_seeded_msi_copyback_defect_trips_invariant_checker():
    """Re-introducing the MSI writeback-credit bug must fail the checker."""
    traces = producer_consumer_traces(4)  # stable dirty supplier: many copybacks
    fastpath_coherence.set_kernel_defect(1)
    try:
        fast = unchecked(small_machine(4), protocol="msi")
        kernel_replay(fast, traces)
    finally:
        fastpath_coherence.set_kernel_defect(0)
    assert fast.bus.stats.c2c_transfers > 0, "pattern produced no copybacks"
    with pytest.raises(InvariantViolation, match="writebacks"):
        fast.check_invariants()


@needs_kernel
def test_seeded_lru_defect_diverges_from_scalar():
    """Skipping the LRU refresh on L2 read hits must break parity."""
    traces = random_traces(99, 4, 1500, 96)
    machine = small_machine(4)
    scalar = MemoryHierarchy(machine)
    scalar.run_trace(traces, fastpath=False)
    fastpath_coherence.set_kernel_defect(2)
    try:
        fast = unchecked(machine)
        kernel_replay(fast, traces)
    finally:
        fastpath_coherence.set_kernel_defect(0)
    assert full_state(fast) != full_state(scalar)


# -- routing and escape hatches ---------------------------------------------


def refuse_kernel(monkeypatch, why: str) -> None:
    def boom(hierarchy):
        raise AssertionError(f"kernel asked despite {why}")

    monkeypatch.setattr(fastpath_coherence.KernelSession, "begin", boom)


def test_fastpath_false_never_calls_kernel(monkeypatch):
    refuse_kernel(monkeypatch, "fastpath=False")
    h = MemoryHierarchy(small_machine(2))
    h.run_trace(one_block_traces(2), fastpath=False)
    assert h.bus.stats.total_misses > 0


def test_env_escape_hatch_disables_kernel(monkeypatch):
    refuse_kernel(monkeypatch, "JMMW_FASTPATH=0")
    monkeypatch.setenv(fastpath.FASTPATH_ENV, "0")
    h = MemoryHierarchy(small_machine(2))
    h.run_trace(one_block_traces(2))
    assert h.bus.stats.total_misses > 0


def test_invariant_checker_forces_scalar_path(monkeypatch):
    refuse_kernel(monkeypatch, "an invariant checker attached")
    h = MemoryHierarchy(small_machine(2), check_invariants=True, check_sample=64)
    h.run_trace(one_block_traces(2), fastpath=True)
    assert h.bus.stats.total_misses > 0


def assert_declined(machine, traces, reason, setup=None):
    """A fast-path replay the kernel declines: counted, and scalar-exact."""
    h = unchecked(machine)
    ref = MemoryHierarchy(machine)
    for hierarchy in (h, ref):
        if setup is not None:
            setup(hierarchy)
    h.run_trace(traces, fastpath=True)
    ref.run_trace(traces, fastpath=False)
    assert full_state(h) == full_state(ref)
    assert obs.COUNTERS.get(f"{fastpath_coherence.FALLBACK_COUNTER}/{reason}") == 1
    assert obs.COUNTERS.get(SERVED) == 0


def test_missing_compiler_falls_back_to_scalar(monkeypatch):
    monkeypatch.setattr(fastpath_coherence, "_load_library", lambda: None)
    assert_declined(small_machine(2), one_block_traces(2), "no-kernel")


@needs_kernel
def test_warm_hierarchy_declines_kernel():
    traces = one_block_traces(2)
    assert_declined(
        small_machine(2), traces, "warm",
        setup=lambda h: h.run_trace(traces, fastpath=False),
    )


@needs_kernel
def test_too_many_l2_caches_declines_kernel():
    machine = MachineConfig(
        n_procs=65,
        l1i=CacheConfig(size=1024, assoc=2, block=32, name="L1I"),
        l1d=CacheConfig(size=1024, assoc=2, block=32, name="L1D"),
        l2=CacheConfig(size=4096, assoc=4, block=64, name="L2"),
    )
    traces = [[encode_ref(cpu % 3 * 64, LOAD)] for cpu in range(65)]
    assert_declined(machine, traces, "unsupported")
