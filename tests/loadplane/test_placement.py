"""Bulk warm-start placement equals the per-user loop it replaced.

``_Engine._place_users`` writes the starting population a slice at a
time.  Each case builds two engines from one config: one runs
``_place_users``, the other :func:`per_user_place` (one ``_arrive``
per placed user, then one ``idle_pool.add`` per idle user), and every
piece of state the event loop reads must come out equal, down to the
next draws of the run's RNG stream.  The bulk container methods are
also held to the single-user calls they stand for.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.appserver.threadpool import ThreadPool
from repro.errors import SimulationError
from repro.loadplane import FifoRing, IndexPool, LoadPlaneConfig, UserColumns
from repro.loadplane.engine import _Engine, _RandomBlocks
from repro.loadplane.state import BULK_CHUNK, FREE, THINKING
from repro.rng import RngFactory


def per_user_place(engine: _Engine) -> int:
    """The reference placement: one transition per user."""
    config = engine.config
    placed = engine._warm_start_population() if config.warm_start else 0
    if not config.open_loop and config.think_s == 0:
        placed = config.n_users
    for user in range(placed):
        engine._arrive(user, 0.0)
    engine.win.arrivals = 0
    for user in range(placed, config.n_users):
        engine.users.phase[user] = FREE if config.open_loop else THINKING
        engine.idle_pool.add(user)
    return placed


def _fifo(ring: FifoRing) -> np.ndarray:
    """The ring's queued users, oldest first."""
    return np.roll(ring.buf, -ring.head)[:ring.size]


def assert_same_state(bulk: _Engine, ref: _Engine) -> None:
    for column in UserColumns.__slots__[1:]:
        assert np.array_equal(
            getattr(bulk.users, column), getattr(ref.users, column)
        ), column
    assert np.array_equal(bulk.slot_of, ref.slot_of)
    pools = zip(
        [bulk.idle_pool, *bulk.cpu_pools, *bulk.db_pools],
        [ref.idle_pool, *ref.cpu_pools, *ref.db_pools],
    )
    for got, want in pools:
        assert got.size == want.size
        assert np.array_equal(got.members, want.members)
    for got, want in (
        (bulk.thread_queue, ref.thread_queue),
        (bulk.conn_queue, ref.conn_queue),
    ):
        assert (got.head, got.size) == (want.head, want.size)
        assert np.array_equal(_fifo(got), _fifo(want))
    assert vars(bulk.thread_pool) == vars(ref.thread_pool)
    assert vars(bulk.conn_pool) == vars(ref.conn_pool)
    assert bulk.n_sys == ref.n_sys
    assert bulk.win.arrivals == ref.win.arrivals == 0
    for _ in range(3):
        assert bulk.rand.uniform() == ref.rand.uniform()
    for _ in range(3):
        assert bulk.rand.exponential() == ref.rand.exponential()


_ZERO_THINK = dict(threads=8, think_s=0.0, windows=2, window_s=0.5)

#: case id -> (config, users the warm start places)
CASES = {
    "placed-0": (LoadPlaneConfig(n_users=500, warm_start=False), 0),
    "below-threads": (LoadPlaneConfig(n_users=5, **_ZERO_THINK), 5),
    "equal-threads": (LoadPlaneConfig(n_users=8, **_ZERO_THINK), 8),
    "placed-8191": (LoadPlaneConfig(n_users=8_191, **_ZERO_THINK), 8_191),
    "placed-8192": (LoadPlaneConfig(n_users=8_192, **_ZERO_THINK), 8_192),
    "placed-8193": (LoadPlaneConfig(n_users=8_193, **_ZERO_THINK), 8_193),
    "open-loop": (
        LoadPlaneConfig(
            n_users=2_000, open_loop=True, arrival_rate=380.0, think_s=0.0
        ),
        24,
    ),
    "ecperf": (LoadPlaneConfig(n_users=20_000, workload="ecperf"), 19_520),
}


@pytest.mark.parametrize("case_id", sorted(CASES))
def test_bulk_placement_equals_per_user_loop(case_id):
    config, placed = CASES[case_id]
    bulk, ref = _Engine(config), _Engine(config)
    bulk._place_users()
    assert per_user_place(ref) == placed
    assert_same_state(bulk, ref)


# -- the bulk draws and container methods ------------------------------------


def test_uniform_runs_equal_scalar_draws_across_refills():
    block = 16
    bulk = _RandomBlocks(RngFactory(seed=5).stream("t"), block=block)
    ref = _RandomBlocks(RngFactory(seed=5).stream("t"), block=block)
    # Start mid-block, interleave exponential draws (they share the
    # generator, so a refill in the wrong place shifts everything), and
    # end once exactly on a block boundary.
    for k in (3, 13, 0, 1, 40, 7):
        runs = list(bulk.uniform_runs(k))
        assert all(0 < len(run) <= block for run in runs)
        got = np.concatenate(runs) if runs else np.empty(0)
        assert got.tolist() == [ref.uniform() for _ in range(k)]
        for _ in range(5):
            assert bulk.exponential() == ref.exponential()
    assert [bulk.uniform() for _ in range(40)] == [ref.uniform() for _ in range(40)]


def _overflow_text(call) -> str:
    with pytest.raises(SimulationError) as info:
        call()
    return str(info.value)


def test_index_pool_add_range_equals_single_adds():
    n = 3 * BULK_CHUNK
    slots_bulk = np.full(n, -1, dtype=np.int64)
    slots_ref = np.full(n, -1, dtype=np.int64)
    bulk, ref = IndexPool(n, slots_bulk), IndexPool(n, slots_ref)
    for pool in (bulk, ref):
        pool.add(7)
    bulk.add_range(100, 100 + 2 * BULK_CHUNK + 5)
    for user in range(100, 100 + 2 * BULK_CHUNK + 5):
        ref.add(user)
    assert bulk.size == ref.size
    assert np.array_equal(bulk.members, ref.members)
    assert np.array_equal(slots_bulk, slots_ref)


def test_index_pool_add_range_overflow_and_empty_range():
    slots = np.full(8, -1, dtype=np.int64)
    single = IndexPool(2, slots)
    single.add(0)
    single.add(1)
    want = _overflow_text(lambda: single.add(2))
    bulk = IndexPool(2, np.full(8, -1, dtype=np.int64))
    assert _overflow_text(lambda: bulk.add_range(0, 3)) == want
    assert bulk.size == 0
    bulk.add_range(4, 4)
    assert bulk.size == 0 and (bulk.slot_of == -1).all()


def test_fifo_push_range_equals_single_pushes_across_the_wrap():
    bulk, ref = FifoRing(6), FifoRing(6)
    for ring in (bulk, ref):
        for user in (1, 2, 3):
            ring.push(user)
        ring.pop()
        ring.pop()  # head now mid-buffer, so the range wraps
    bulk.push_range(10, 15)
    for user in range(10, 15):
        ref.push(user)
    assert (bulk.head, bulk.size) == (ref.head, ref.size)
    assert np.array_equal(bulk.buf, ref.buf)
    assert [bulk.pop() for _ in range(6)] == [3, 10, 11, 12, 13, 14]


def test_fifo_push_range_overflow_and_empty_range():
    single = FifoRing(2)
    single.push(0)
    single.push(1)
    want = _overflow_text(lambda: single.push(2))
    bulk = FifoRing(2)
    assert _overflow_text(lambda: bulk.push_range(0, 3)) == want
    assert bulk.size == 0
    bulk.push_range(5, 5)
    assert (bulk.head, bulk.size) == (0, 0)


@pytest.mark.parametrize("in_use, k", [(0, 0), (0, 3), (0, 8), (2, 5), (3, 12), (8, 4)])
def test_try_acquire_many_counts_as_single_acquires(in_use, k):
    bulk, ref = ThreadPool(8), ThreadPool(8)
    for pool in (bulk, ref):
        for _ in range(in_use):
            assert pool.try_acquire()
    taken = bulk.try_acquire_many(k)
    assert taken == sum(ref.try_acquire() for _ in range(k))
    assert vars(bulk) == vars(ref)
    with pytest.raises(SimulationError):
        bulk.try_acquire_many(-1)
