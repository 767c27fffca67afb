"""Bit-parity of streamed replay against the materialized paths.

The streaming contract (:mod:`repro.memsys.stream`) is *exactness*:
replaying a trace chunk-by-chunk with carried state must produce
results bit-identical to materializing the whole trace first — every
counter, every miss class, the final LRU contents of every cache.
These tests check that contract on hypothesis-generated traces across
chunk sizes including the degenerate ones (chunk=1, chunk larger than
the trace) and on deterministic traces built to straddle chunk
boundaries with same-set runs.

The suite must also *fail loudly* when carried state is broken:
:func:`repro.memsys.stream.set_carried_state_defect` drops the carried
state at every chunk boundary, and the seeded-defect tests assert the
parity checks then diverge — proof the suite has teeth.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SimConfig
from repro.memsys import stream as stream_mod
from repro.memsys.block import IFETCH, LOAD, STORE, encode_ref
from repro.memsys.cache import SetAssociativeCache
from repro.memsys.config import CacheConfig, e6000_machine
from repro.memsys.fastpath import lru_miss_mask
from repro.memsys.hierarchy import MemoryHierarchy
from repro.memsys.multisim import simulate_miss_curve
from repro.memsys.stream import (
    MissCurveAccumulator,
    TraceStream,
    lru_carried_state,
    set_carried_state_defect,
    simulate_miss_curve_stream,
)

#: Tiny sweep sizes so short traces still evict and conflict.
SIZES = [1024, 2048, 4096]

#: A few block bits of address space: dense same-set collisions.
_ADDRS = st.integers(min_value=0, max_value=0x3FFF)
_KINDS = st.sampled_from([IFETCH, LOAD, STORE])
_REFS = st.lists(
    st.builds(encode_ref, _ADDRS, _KINDS), min_size=1, max_size=400
)


def _chunks(arr: np.ndarray, chunk: int):
    for start in range(0, int(arr.size), chunk):
        yield arr[start : start + chunk]


def _chunk_sizes(n: int) -> list[int]:
    return sorted({1, 3, max(1, n // 2), n + 5})


def _curve_vectors(points) -> list[tuple]:
    return [(p.size, p.accesses, p.misses, p.mpki) for p in points]


# -- miss curves -------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(refs=_REFS, kind=st.sampled_from(["instr", "data"]))
def test_streamed_miss_curve_matches_materialized(refs, kind):
    arr = np.asarray(refs, dtype=np.uint64)
    want = _curve_vectors(
        simulate_miss_curve(arr, SIZES, kind=kind, assoc=2, warmup_fraction=0.5)
    )
    for chunk in _chunk_sizes(arr.size):
        for fastpath in (True, False):
            got = _curve_vectors(
                simulate_miss_curve_stream(
                    _chunks(arr, chunk), int(arr.size), SIZES, kind=kind,
                    assoc=2, warmup_fraction=0.5, fastpath=fastpath,
                )
            )
            assert got == want, (chunk, fastpath)


def test_streamed_miss_curve_boundary_straddling_same_set_run():
    """A run of same-set conflicting blocks split mid-run by a boundary.

    Four blocks aliasing to one set of a 2-way cache, repeated so the
    LRU order at every chunk boundary decides downstream hits; any
    carried-state slip moves misses between chunks.
    """
    config = CacheConfig(size=1024, assoc=2, block=64)
    stride = config.n_sets * 64
    blocks = [i * stride for i in (1, 2, 3, 4)] * 20
    refs = np.asarray([encode_ref(a, LOAD) for a in blocks], dtype=np.uint64)
    want = _curve_vectors(
        simulate_miss_curve(refs, [1024], kind="data", assoc=2)
    )
    for chunk in (1, 2, 3, 7, 79):
        got = _curve_vectors(
            simulate_miss_curve_stream(
                _chunks(refs, chunk), int(refs.size), [1024], kind="data",
                assoc=2,
            )
        )
        assert got == want, chunk


def test_carried_state_built_only_when_more_references_follow(monkeypatch):
    """A one-chunk sweep builds no carried state; a two-chunk sweep does.

    Every Figure 12/13 trace fits in one chunk, so carried state built
    after the last chunk would be pure overhead on those figures.
    """

    def refuse(*args, **kwargs):
        raise AssertionError("carried state built")

    monkeypatch.setattr(stream_mod, "lru_carried_state", refuse)
    rng = np.random.default_rng(12)
    arr = np.asarray(
        [
            encode_ref(int(a), int(k))
            for a, k in zip(
                rng.integers(0, 0x3FFF, size=500),
                rng.choice([IFETCH, LOAD, STORE], size=500),
            )
        ],
        dtype=np.uint64,
    )
    for kind in ("instr", "data"):
        simulate_miss_curve(arr, SIZES, kind=kind, assoc=2, fastpath=True)
        simulate_miss_curve_stream(
            [arr], int(arr.size), SIZES, kind=kind, assoc=2, fastpath=True
        )
        with pytest.raises(AssertionError, match="carried state built"):
            simulate_miss_curve_stream(
                _chunks(arr, 300), int(arr.size), SIZES, kind=kind, assoc=2,
                fastpath=True,
            )


# -- carried LRU state vs the scalar cache -----------------------------------


@settings(max_examples=25, deadline=None)
@given(
    blocks=st.lists(st.integers(min_value=0, max_value=255), min_size=1,
                    max_size=300),
    split=st.integers(min_value=0, max_value=300),
)
def test_carried_state_reproduces_scalar_cache_contents(blocks, split):
    """lru_carried_state == the scalar cache's final per-set LRU order."""
    config = CacheConfig(size=512, assoc=2, block=64)
    arr = np.asarray(blocks, dtype=np.int64)
    split = min(split, arr.size)
    state = lru_carried_state(arr[:split], config.set_mask, config.assoc)
    state = lru_carried_state(
        arr[split:], config.set_mask, config.assoc, prefix=state
    )
    cache = SetAssociativeCache(config)
    for b in blocks:
        cache.access(int(b), write=False)
    # The scalar cache keeps insertion-ordered dicts per set with the
    # MRU block at the tail; the carried state emits each set LRU->MRU.
    by_set: dict[int, list[int]] = {}
    for b in state.tolist():
        by_set.setdefault(int(b) & config.set_mask, []).append(int(b))
    for set_index, line_set in enumerate(cache._sets):
        assert by_set.get(set_index, []) == list(line_set.keys()), set_index
    # And replaying through the prefix yields the exact miss flags.
    prefix = lru_carried_state(arr[:split], config.set_mask, config.assoc)
    concat = np.concatenate([prefix, arr[split:]])
    flags = lru_miss_mask(
        concat.astype(np.uint64), config.set_mask, config.assoc
    )[prefix.size:]
    whole = lru_miss_mask(
        arr.astype(np.uint64), config.set_mask, config.assoc
    )[split:]
    assert flags.tolist() == whole.tolist()


# -- full-hierarchy replay ---------------------------------------------------


def _machine_state(hierarchy: MemoryHierarchy):
    """Every counter and the full final cache state, comparable."""
    procs = [vars(s).copy() for s in hierarchy.proc_stats]
    bus = vars(hierarchy.bus.stats).copy()
    c2c = dict(hierarchy.bus.stats.c2c_by_line)
    sides = [vars(s).copy() for s in hierarchy.bus.cache_stats]
    caches = []
    for cache in [*hierarchy.bus.caches, *hierarchy._l1i, *hierarchy._l1d]:
        caches.append([list(s.items()) for s in cache._sets])
    return procs, bus, c2c, sides, caches


def _workload_streams(chunk: int):
    from repro.rng import RngFactory
    from repro.workloads.specjbb import SpecJbbWorkload

    sim = SimConfig(seed=77, refs_per_proc=3_000, warmup_fraction=0.5)
    workload = SpecJbbWorkload(warehouses=2)
    bundle = workload.generate(2, sim, RngFactory(seed=sim.seed))
    stream = TraceStream.from_arrays(bundle.per_cpu, chunk_refs=chunk)
    return sim, bundle, stream


@pytest.mark.parametrize("fastpath", [False, True])
@pytest.mark.parametrize("chunk", [1, 277, 1_000_000])
def test_streamed_hierarchy_replay_matches_materialized(fastpath, chunk):
    """Every chunking, on both paths, matches the scalar one-chunk replay.

    A materialized trace is itself replayed as a one-chunk stream, so
    the reference is pinned to the scalar loop; a fast-path replay must
    also have been served by the kernel, or the comparison would be
    scalar against scalar.
    """
    from repro import obs

    if fastpath:
        from repro.memsys.fastpath_coherence import kernel_available

        if not kernel_available():
            pytest.skip("coherence kernel unavailable")
    sim, bundle, stream = _workload_streams(chunk)
    machine = e6000_machine(2)

    reference = MemoryHierarchy(machine, protocol="mosi")
    reference.run_trace(
        list(bundle.per_cpu), quantum=sim.interleave_quantum,
        warmup_fraction=sim.warmup_fraction, fastpath=False,
    )
    # Pinned unchecked: under JMMW_CHECK=1 a checker would keep the
    # fast path scalar.
    streamed = MemoryHierarchy(machine, protocol="mosi", check_invariants=False)
    streamed.run_trace(
        stream, quantum=sim.interleave_quantum,
        warmup_fraction=sim.warmup_fraction, fastpath=fastpath,
    )
    assert _machine_state(streamed) == _machine_state(reference)
    assert obs.COUNTERS.get("memsys/fastpath/coherent_replay") == int(fastpath)


# -- seeded defect: the suite must fail loudly -------------------------------


def test_dropped_carried_state_breaks_miss_curve_parity():
    # Two blocks ping-ponging in one set: after the cold misses every
    # access hits — unless the carried state is dropped at a boundary,
    # which turns each chunk's first accesses back into misses.
    arr = np.asarray(
        [encode_ref(a * 64, LOAD) for a in [1, 9] * 60],
        dtype=np.uint64,
    )
    want = _curve_vectors(simulate_miss_curve(arr, [512], kind="data", assoc=2))
    set_carried_state_defect(True)
    try:
        # The defect lives in the vectorized accumulator; the scalar
        # reference keeps its caches live and has no state to drop.
        got = _curve_vectors(
            simulate_miss_curve_stream(
                _chunks(arr, 7), int(arr.size), [512], kind="data", assoc=2,
                fastpath=True,
            )
        )
    finally:
        set_carried_state_defect(False)
    assert got != want, "defect injection must break parity"


def test_defect_flag_restores_cleanly():
    assert stream_mod._drop_carried_state is False
    arr = np.asarray([encode_ref(a * 64, LOAD) for a in [1, 9] * 20],
                     dtype=np.uint64)
    want = _curve_vectors(simulate_miss_curve(arr, [512], kind="data", assoc=2))
    got = _curve_vectors(
        simulate_miss_curve_stream(
            _chunks(arr, 7), int(arr.size), [512], kind="data", assoc=2
        )
    )
    assert got == want


# -- accumulator bookkeeping -------------------------------------------------


def test_miss_curve_accumulator_rejects_incomplete_stream():
    acc = MissCurveAccumulator(
        [CacheConfig(size=512, assoc=2, block=64)], kind="data",
        total_refs=100, warmup_fraction=0.5,
    )
    acc.feed(np.asarray([encode_ref(64, LOAD)] * 10, dtype=np.uint64))
    with pytest.raises(Exception):
        acc.points()
