"""Execution-queue thread pool.

"The application server creates a fixed number of threads ... and
allocates idle threads out of these pools rather than creating new
ones" (Section 2.5).  The paper also observes that configurations with
too many threads spend much more time in the kernel — so the pool
size is a tuning knob with an optimum, which the model exposes.
"""

from __future__ import annotations

from repro.errors import ConfigError, SimulationError


class ThreadPool:
    """Fixed pool of worker threads with occupancy accounting."""

    def __init__(self, size: int) -> None:
        if size <= 0:
            raise ConfigError("thread pool size must be positive")
        self.size = size
        self.in_use = 0
        self.peak_in_use = 0
        self.acquires = 0
        self.rejected = 0

    def try_acquire(self) -> bool:
        """Take a worker if one is idle; False if the pool is exhausted."""
        self.acquires += 1
        if self.in_use >= self.size:
            self.rejected += 1
            return False
        self.in_use += 1
        if self.in_use > self.peak_in_use:
            self.peak_in_use = self.in_use
        return True

    def try_acquire_many(self, k: int) -> int:
        """Take up to ``k`` idle workers; returns how many were taken.

        Counts as ``k`` calls of :meth:`try_acquire` with no release
        between them: the calls that find an idle worker take it, the
        rest are rejected.
        """
        if k < 0:
            raise SimulationError("cannot acquire a negative number of threads")
        taken = min(k, self.size - self.in_use)
        self.acquires += k
        self.rejected += k - taken
        self.in_use += taken
        if self.in_use > self.peak_in_use:
            self.peak_in_use = self.in_use
        return taken

    def release(self) -> None:
        if self.in_use <= 0:
            raise SimulationError("release on an empty thread pool")
        self.in_use -= 1

    @property
    def rejection_ratio(self) -> float:
        return self.rejected / self.acquires if self.acquires else 0.0

    @staticmethod
    def kernel_overhead_factor(pool_size: int, n_procs: int) -> float:
        """Extra kernel time from over-threading.

        With far more runnable threads than processors, the OS spends
        time context switching and migrating them.  Model: overhead
        grows quadratically in the threads-per-processor ratio beyond
        2 (the well-tuned region the paper lands in).

        >>> ThreadPool.kernel_overhead_factor(16, 8) == 1.0
        True
        >>> ThreadPool.kernel_overhead_factor(128, 8) > 1.2
        True
        """
        if pool_size <= 0 or n_procs <= 0:
            raise ConfigError("pool_size and n_procs must be positive")
        ratio = pool_size / n_procs
        if ratio <= 2.0:
            return 1.0
        return 1.0 + 0.02 * (ratio - 2.0) ** 2
