"""Batched user-state containers for the load plane.

A million emulated users cannot be a million Python objects: the load
plane keeps *columns*, not instances.  :class:`UserColumns` holds one
numpy array per attribute (phase, transaction type, timestamps), and
the engine moves users between stations by rewriting column entries —
the same array-of-struct to struct-of-array turn the trace pipeline
took in PR 2.

Two small numpy-backed containers give the engine O(1) station
membership operations without per-user objects:

- :class:`IndexPool` — an unordered set of user indices supporting
  O(1) add, O(1) remove and O(1) *uniform* sampling (swap-remove).
  Uniform sampling is what makes the Gillespie engine exact: when one
  of ``k`` exponential clocks fires, the winner is uniform among the
  ``k`` (memorylessness), so "pick a uniform member" IS the race.
- :class:`FifoRing` — a fixed-capacity FIFO of user indices (an int64
  ring buffer) for the thread- and connection-pool wait queues.

Both also take a contiguous user range in one call
(:meth:`IndexPool.add_range`, :meth:`FifoRing.push_range`), leaving
the state that many single-user calls would; the warm start places a
population with them.  A range is written :data:`BULK_CHUNK` entries
at a time, so no temporary grows with the population.

All three are sized once, up front, so a run's memory footprint is a
function of the configured population, never of simulated time.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError, SimulationError

#: User phases (int8 column values).
THINKING = np.int8(0)  # closed loop: waiting out the think time
Q_THREAD = np.int8(1)  # arrived; queued for a worker thread
CPU = np.int8(2)  # holding a thread; in the CPU service phase
Q_CONN = np.int8(3)  # holding a thread; queued for a DB connection
DB = np.int8(4)  # holding thread + connection; in the DB phase
FREE = np.int8(5)  # open loop: an unused request slot

#: Phases in which the user occupies the appserver station system.
IN_SYSTEM_PHASES = (Q_THREAD, CPU, Q_CONN, DB)

#: Longest run of user indices a bulk write computes at once.
BULK_CHUNK = 8192

#: Offsets 0 .. BULK_CHUNK - 1, added in place to each chunk's first
#: index, so a bulk write allocates nothing per chunk.
_RAMP = np.arange(BULK_CHUNK, dtype=np.int64)


def _write_range(out: np.ndarray, first: int) -> None:
    """Fill ``out`` with ``first, first + 1, ...``, a chunk at a time."""
    for lo in range(0, len(out), BULK_CHUNK):
        chunk = out[lo:lo + BULK_CHUNK]
        np.add(_RAMP[:len(chunk)], first + lo, out=chunk)


class UserColumns:
    """Struct-of-arrays state for ``n`` emulated users.

    ``phase``/``txn`` are int8 (a million users cost two megabytes),
    timestamps are float64 seconds of simulated time.  ``t_enter`` is
    when the user last entered the station system (response-time
    anchor), ``t_thread``/``t_conn`` when it acquired the worker
    thread / DB connection (busy-time anchors).
    """

    __slots__ = ("n", "phase", "txn", "t_enter", "t_thread", "t_conn")

    def __init__(self, n: int) -> None:
        if n <= 0:
            raise ConfigError("user population must be positive")
        self.n = n
        self.phase = np.full(n, THINKING, dtype=np.int8)
        self.txn = np.zeros(n, dtype=np.int8)
        self.t_enter = np.zeros(n, dtype=np.float64)
        self.t_thread = np.zeros(n, dtype=np.float64)
        self.t_conn = np.zeros(n, dtype=np.float64)

    def nbytes(self) -> int:
        """Total bytes held by the columns (the O(users) footprint)."""
        return (
            self.phase.nbytes
            + self.txn.nbytes
            + self.t_enter.nbytes
            + self.t_thread.nbytes
            + self.t_conn.nbytes
        )


class IndexPool:
    """Unordered index set with O(1) add/remove/uniform-sample.

    ``members[:size]`` lists the current members; ``slot_of`` maps a
    user index to its position in ``members`` (shared across pools is
    fine as long as membership is exclusive, which station phases
    guarantee).

    >>> slots = np.full(8, -1, dtype=np.int64)
    >>> pool = IndexPool(4, slot_of=slots)
    >>> pool.add(5); pool.add(2); pool.size
    2
    >>> pool.remove(5); pool.size
    1
    >>> int(pool.at(0))
    2
    """

    __slots__ = ("members", "slot_of", "size")

    def __init__(self, capacity: int, slot_of: np.ndarray) -> None:
        if capacity <= 0:
            raise ConfigError("pool capacity must be positive")
        self.members = np.zeros(capacity, dtype=np.int64)
        self.slot_of = slot_of
        self.size = 0

    def add(self, user: int) -> None:
        if self.size >= len(self.members):
            raise SimulationError("index pool overflow")
        self.members[self.size] = user
        self.slot_of[user] = self.size
        self.size += 1

    def add_range(self, start: int, stop: int) -> None:
        """Add users ``start .. stop - 1``, as that many :meth:`add` calls would.

        An empty range is a no-op; a range that does not fit raises
        :meth:`add`'s overflow error before anything is written.
        """
        n = stop - start
        if n <= 0:
            return
        if self.size + n > len(self.members):
            raise SimulationError("index pool overflow")
        _write_range(self.members[self.size:self.size + n], start)
        _write_range(self.slot_of[start:stop], self.size)
        self.size += n

    def remove(self, user: int) -> None:
        slot = int(self.slot_of[user])
        if slot < 0 or slot >= self.size or self.members[slot] != user:
            raise SimulationError(f"user {user} is not in this pool")
        self._remove_slot(slot)

    def _remove_slot(self, slot: int) -> int:
        """Swap-remove the member at ``slot``; returns the user index."""
        user = int(self.members[slot])
        last = self.size - 1
        mover = self.members[last]
        self.members[slot] = mover
        self.slot_of[mover] = slot
        self.slot_of[user] = -1
        self.size = last
        return user

    def sample_remove(self, u01: float) -> int:
        """Remove and return a uniformly-chosen member (``u01`` in [0,1))."""
        if self.size <= 0:
            raise SimulationError("sample from an empty index pool")
        slot = int(u01 * self.size)
        if slot >= self.size:  # u01 == 1.0 - eps rounding
            slot = self.size - 1
        return self._remove_slot(slot)

    def pop(self) -> int:
        """Remove and return the last-added member (order-free stack)."""
        if self.size <= 0:
            raise SimulationError("pop from an empty index pool")
        return self._remove_slot(self.size - 1)

    def at(self, slot: int) -> int:
        return int(self.members[slot])


class FifoRing:
    """Fixed-capacity FIFO queue of user indices (int64 ring buffer)."""

    __slots__ = ("buf", "head", "size")

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ConfigError("ring capacity must be positive")
        self.buf = np.zeros(capacity, dtype=np.int64)
        self.head = 0
        self.size = 0

    def push(self, user: int) -> None:
        if self.size >= len(self.buf):
            raise SimulationError("FIFO ring overflow")
        self.buf[(self.head + self.size) % len(self.buf)] = user
        self.size += 1

    def push_range(self, start: int, stop: int) -> None:
        """Push users ``start .. stop - 1`` in order, as :meth:`push` calls would.

        An empty range is a no-op; a range that does not fit raises
        :meth:`push`'s overflow error before anything is written.
        """
        n = stop - start
        if n <= 0:
            return
        capacity = len(self.buf)
        if self.size + n > capacity:
            raise SimulationError("FIFO ring overflow")
        tail = (self.head + self.size) % capacity
        before_wrap = min(n, capacity - tail)
        _write_range(self.buf[tail:tail + before_wrap], start)
        _write_range(self.buf[:n - before_wrap], start + before_wrap)
        self.size += n

    def pop(self) -> int:
        if self.size <= 0:
            raise SimulationError("pop from an empty FIFO ring")
        user = int(self.buf[self.head])
        self.head = (self.head + 1) % len(self.buf)
        self.size -= 1
        return user
