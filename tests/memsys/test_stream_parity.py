"""Bit-parity of chunked miss-curve sweeps against one-chunk sweeps.

The streaming contract (:mod:`repro.memsys.stream`) is *exactness*:
sweeping a trace chunk by chunk, every geometry's cache kept across
boundaries, must give points bit-identical to sweeping the whole trace
at once.  These tests check that contract on hypothesis-generated
traces across chunk sizes including the degenerate ones (chunk=1,
chunk larger than the trace) and on deterministic traces built to
straddle chunk boundaries with same-set runs.

The suite must also *fail loudly* when carried state is broken: the
seeded kernel defect
:data:`repro.memsys.fastpath_coherence.SWEEP_DEFECT_FORGET_AT_FEED`
makes the compiled sweep forget every cache's contents at each chunk
after the first, and the seeded-defect tests assert the parity checks
then diverge — proof the suite has teeth.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError, SimulationError
from repro.memsys import fastpath_coherence
from repro.memsys.block import IFETCH, LOAD, STORE, encode_ref
from repro.memsys.config import CacheConfig
from repro.memsys.fastpath_coherence import SWEEP_DEFECT_FORGET_AT_FEED
from repro.memsys.multisim import simulate_miss_curve
from repro.memsys.stream import simulate_miss_curve_stream

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


# -- seeded defect: the suite must fail loudly -------------------------------


needs_kernel = pytest.mark.skipif(
    not fastpath_coherence.kernel_available(),
    reason="the compiled kernel is unavailable (no C compiler?)",
)


@needs_kernel
def test_dropped_carried_state_breaks_miss_curve_parity():
    # Two blocks ping-ponging in one set: after the cold misses every
    # access hits — unless the caches forget their contents at a
    # boundary, which turns each chunk's first accesses back into misses.
    arr = np.asarray(
        [encode_ref(a * 64, LOAD) for a in [1, 9] * 60],
        dtype=np.uint64,
    )
    want = _curve_vectors(simulate_miss_curve(arr, [512], kind="data", assoc=2))
    fastpath_coherence.set_kernel_defect(SWEEP_DEFECT_FORGET_AT_FEED)
    try:
        # The defect lives in the compiled sweep; the scalar reference
        # keeps its caches live and has no state to drop.
        got = _curve_vectors(
            simulate_miss_curve_stream(
                _chunks(arr, 7), int(arr.size), [512], kind="data", assoc=2,
                fastpath=True,
            )
        )
    finally:
        fastpath_coherence.set_kernel_defect(0)
    assert got != want, "defect injection must break parity"


def test_defect_flag_restores_cleanly():
    assert fastpath_coherence._defect == 0
    arr = np.asarray([encode_ref(a * 64, LOAD) for a in [1, 9] * 20],
                     dtype=np.uint64)
    want = _curve_vectors(simulate_miss_curve(arr, [512], kind="data", assoc=2))
    got = _curve_vectors(
        simulate_miss_curve_stream(
            _chunks(arr, 7), int(arr.size), [512], kind="data", assoc=2
        )
    )
    assert got == want


# -- stream bookkeeping ------------------------------------------------------


def test_miss_curve_accumulator_rejects_incomplete_stream():
    """Both paths refuse a stream shorter, or longer, than declared,
    and a chunk that is not one-dimensional."""
    refs = np.asarray([encode_ref(64, LOAD)] * 10, dtype=np.uint64)
    for declared, error in ((100, "stream incomplete"), (5, "overruns the declared")):
        for fastpath in (True, False):
            with pytest.raises(SimulationError, match=error):
                simulate_miss_curve_stream(
                    [refs], declared, [512], kind="data", assoc=2,
                    warmup_fraction=0.5, fastpath=fastpath,
                )
    # A warmup slice of a 2-D chunk cuts rows, not references: taken
    # as is, the scalar path would count every reference as warmup.
    square = np.asarray(
        [encode_ref(a * 64, LOAD) for a in range(40)], dtype=np.uint64
    ).reshape(2, 20)
    for fastpath in (True, False):
        with pytest.raises(ConfigError, match="one-dimensional"):
            simulate_miss_curve_stream(
                [square], 40, [1024], kind="data", fastpath=fastpath,
            )
