"""Vectorized replay kernels vs. the scalar references (bit-identical)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.memsys import fastpath
from repro.memsys.block import IFETCH, INSTRUCTIONS_PER_IFETCH, LOAD, STORE, encode_ref
from repro.memsys.cache import SetAssociativeCache
from repro.memsys.config import CacheConfig
from repro.memsys.multisim import simulate_miss_curve
from repro.memsys.stackdist import StackDistanceProfiler
from repro.units import kb


def random_trace(rng, n: int, n_blocks: int = 512) -> list[int]:
    """Encoded references mixing all three kinds over a small block pool."""
    kinds = rng.choice([IFETCH, LOAD, STORE], size=n, p=[0.4, 0.45, 0.15])
    addrs = rng.integers(0, n_blocks, size=n) * 64 + rng.integers(0, 16, size=n) * 4
    return [encode_ref(int(a), int(k)) for a, k in zip(addrs, kinds)]


# -- trace classification -------------------------------------------------


def test_classify_trace_splits_and_counts():
    trace = [
        encode_ref(0x1000, IFETCH),
        encode_ref(0x2000, LOAD),
        encode_ref(0x3000, STORE),
        encode_ref(0x1040, IFETCH),
    ]
    instr = fastpath.classify_trace(trace, "instr")
    data = fastpath.classify_trace(trace, "data")
    assert instr.addrs.tolist() == [0x1000, 0x1040]
    assert instr.positions.tolist() == [0, 3]
    assert data.addrs.tolist() == [0x2000, 0x3000]
    assert instr.n_ifetch == 2
    assert instr.instructions == 2 * INSTRUCTIONS_PER_IFETCH
    # trace[:2] holds one ifetch and one data ref.
    assert instr.instructions_before(2) == INSTRUCTIONS_PER_IFETCH
    assert instr.class_count_before(2) == 1
    assert data.class_count_before(2) == 1
    assert instr.instructions_before(0) == 0


def test_classify_trace_rejects_bad_kind():
    with pytest.raises(ConfigError):
        fastpath.classify_trace([], "both")


def test_as_ref_array_rejects_non_1d():
    with pytest.raises(ConfigError):
        fastpath.as_ref_array([[1, 2], [3, 4]])


def test_block_stream_matches_listcomp():
    rng = np.random.default_rng(11)
    trace = random_trace(rng, 2000)
    got = fastpath.block_stream(trace, kind="data")
    want = [r >> 2 >> 6 for r in trace if r & 3 != IFETCH]
    assert got.tolist() == want
    got_i = fastpath.block_stream(trace, kind="instr")
    want_i = [r >> 2 >> 6 for r in trace if r & 3 == IFETCH]
    assert got_i.tolist() == want_i


# -- kernel 1: exact set-associative LRU ----------------------------------


@pytest.mark.parametrize("assoc", [1, 2, 4, 8])
@pytest.mark.parametrize("n_sets", [4, 16])
def test_lru_miss_mask_matches_scalar_cache(assoc, n_sets):
    rng = np.random.default_rng(assoc * 100 + n_sets)
    blocks = rng.integers(0, 6 * n_sets, size=3000).astype(np.uint64)
    cfg = CacheConfig(size=n_sets * assoc * 64, assoc=assoc, block=64)
    cache = SetAssociativeCache(cfg)
    expected = [not cache.access(int(b), False) for b in blocks]
    got = fastpath.lru_miss_mask(blocks, cfg.set_mask, assoc)
    assert got.tolist() == expected


def test_lru_miss_mask_empty_and_validation():
    empty = fastpath.lru_miss_mask(np.asarray([], dtype=np.uint64), 0, 2)
    assert empty.size == 0
    with pytest.raises(ConfigError):
        fastpath.lru_miss_mask(np.asarray([1], dtype=np.uint64), 0, 0)


@settings(max_examples=50, deadline=None)
@given(
    blocks=st.lists(st.integers(min_value=0, max_value=63), min_size=1, max_size=300),
    assoc=st.sampled_from([1, 2, 3, 4]),
)
def test_lru_miss_mask_matches_scalar_cache_random(blocks, assoc):
    """Adversarial shapes (runs, thrash, singletons) via hypothesis."""
    n_sets = 8
    cfg = CacheConfig(size=n_sets * assoc * 64, assoc=assoc, block=64)
    cache = SetAssociativeCache(cfg)
    expected = [not cache.access(b, False) for b in blocks]
    got = fastpath.lru_miss_mask(np.asarray(blocks, dtype=np.uint64), cfg.set_mask, assoc)
    assert got.tolist() == expected


# -- miss-curve parity ----------------------------------------------------


@pytest.mark.parametrize("kind", ["instr", "data"])
@pytest.mark.parametrize("warmup", [0.0, 0.3])
def test_miss_curve_parity(kind, warmup):
    """The tentpole contract: vectorized and scalar sweeps are bit-identical.

    MissCurvePoint is a dataclass, so ``==`` compares every field —
    including the float mpki, which must match exactly, not approximately.
    """
    rng = np.random.default_rng(1234)
    sizes = [kb(8), kb(16), kb(64)]
    for _ in range(3):
        trace = random_trace(rng, 4000)
        fast = simulate_miss_curve(
            trace, sizes, kind=kind, warmup_fraction=warmup, fastpath=True
        )
        slow = simulate_miss_curve(
            trace, sizes, kind=kind, warmup_fraction=warmup, fastpath=False
        )
        assert fast == slow


def test_miss_curve_parity_array_input():
    """The fast path accepts uint64 arrays directly (no list detour)."""
    rng = np.random.default_rng(5)
    trace = random_trace(rng, 2000)
    arr = np.asarray(trace, dtype=np.uint64)
    fast = simulate_miss_curve(arr, [kb(16)], kind="data", warmup_fraction=0.5, fastpath=True)
    slow = simulate_miss_curve(trace, [kb(16)], kind="data", warmup_fraction=0.5, fastpath=False)
    assert fast == slow


def test_miss_curve_empty_trace():
    fast = simulate_miss_curve([], [kb(8)], kind="data", warmup_fraction=0.0, fastpath=True)
    slow = simulate_miss_curve([], [kb(8)], kind="data", warmup_fraction=0.0, fastpath=False)
    assert fast == slow
    assert fast[0].accesses == 0 and fast[0].mpki == 0.0
    # An empty sweep is rejected the same way on both paths.
    for path in (True, False):
        with pytest.raises(ConfigError, match="at least one cache config"):
            simulate_miss_curve([], [], kind="data", fastpath=path)


# -- kernel 2: stack distances --------------------------------------------


@settings(max_examples=50, deadline=None)
@given(blocks=st.lists(st.integers(min_value=0, max_value=40), max_size=300))
def test_stack_distance_histogram_matches_scalar(blocks):
    fast = fastpath.stack_distance_histogram(blocks)
    profiler = StackDistanceProfiler()
    profiler.feed(blocks)
    assert fast == profiler._scalar_histogram()


def test_profiler_routes_both_paths_identically():
    rng = np.random.default_rng(7)
    blocks = rng.integers(0, 64, size=5000).tolist()
    fast = StackDistanceProfiler()
    fast.feed(blocks)
    slow = StackDistanceProfiler()
    slow.feed(blocks)
    assert fast.histogram(fastpath=True) == slow.histogram(fastpath=False)


# -- the toggle -----------------------------------------------------------


def test_env_toggle(monkeypatch):
    monkeypatch.delenv(fastpath.FASTPATH_ENV, raising=False)
    assert fastpath.fastpath_enabled()  # default on
    for off in ("0", "false", "no", "FALSE"):
        monkeypatch.setenv(fastpath.FASTPATH_ENV, off)
        assert not fastpath.fastpath_enabled()
    monkeypatch.setenv(fastpath.FASTPATH_ENV, "1")
    assert fastpath.fastpath_enabled()

