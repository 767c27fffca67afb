"""Streaming latency histograms with bounded relative error.

Latency percentiles over millions of completions cannot keep every
sample.  :class:`LatencyHistogram` is the standard log-spaced bucket
scheme (HdrHistogram's idea, numpy's storage): geometric bins with a
fixed growth ratio, so any quantile is reproduced within half a bin —
a declared, uniform *relative* error — from O(bins) memory however
long the run.

Histograms merge by adding count arrays, which is what lets the
windowed statistics layer keep one histogram per window and still
report whole-run percentiles exactly as cheaply.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import AnalysisError, ConfigError

#: Default bin range: 100 ns .. ~10^6 s of response time.
DEFAULT_LO_S = 1e-7
DEFAULT_HI_S = 1e6

#: Default growth ratio: 4% wide bins -> quantiles within ~2%.
DEFAULT_GROWTH = 1.04


class LatencyHistogram:
    """Log-spaced streaming histogram of non-negative durations."""

    __slots__ = ("lo", "growth", "_log_growth", "counts", "total", "sum_s")

    def __init__(
        self,
        lo_s: float = DEFAULT_LO_S,
        hi_s: float = DEFAULT_HI_S,
        growth: float = DEFAULT_GROWTH,
    ) -> None:
        if lo_s <= 0 or hi_s <= lo_s:
            raise ConfigError("need 0 < lo_s < hi_s")
        if growth <= 1.0:
            raise ConfigError("growth ratio must exceed 1")
        self.lo = lo_s
        self.growth = growth
        self._log_growth = math.log(growth)
        n_bins = int(math.ceil(math.log(hi_s / lo_s) / self._log_growth)) + 1
        self.counts = np.zeros(n_bins, dtype=np.int64)
        self.total = 0
        self.sum_s = 0.0

    def _bin(self, value_s: float) -> int:
        if value_s <= self.lo:
            return 0
        index = int(math.log(value_s / self.lo) / self._log_growth)
        return min(index, len(self.counts) - 1)

    def add(self, value_s: float) -> None:
        """Record one duration (negative durations are a caller bug)."""
        if value_s < 0:
            raise AnalysisError("negative duration recorded")
        self.counts[self._bin(value_s)] += 1
        self.total += 1
        self.sum_s += value_s

    def merge(self, other: "LatencyHistogram") -> None:
        """Absorb another histogram with identical bin geometry."""
        if len(other.counts) != len(self.counts) or other.lo != self.lo:
            raise AnalysisError("histogram geometries differ; cannot merge")
        self.counts += other.counts
        self.total += other.total
        self.sum_s += other.sum_s

    @property
    def mean_s(self) -> float:
        return self.sum_s / self.total if self.total else 0.0

    def quantile(self, q: float) -> float:
        """Value at quantile ``q`` (geometric bin midpoint; ~2% error).

        >>> h = LatencyHistogram()
        >>> for v in (0.01, 0.02, 0.03, 0.04, 0.10): h.add(v)
        >>> 0.025 < h.quantile(0.5) < 0.035
        True
        """
        if not 0.0 <= q <= 1.0:
            raise ConfigError("quantile must be in [0, 1]")
        if self.total == 0:
            return 0.0
        rank = q * (self.total - 1)
        # The first bin whose running count exceeds the rank (counts
        # stay far below 2**53, so the float comparison is exact).
        i = int(np.searchsorted(np.cumsum(self.counts), rank, side="right"))
        if i == len(self.counts):  # pragma: no cover
            return self.lo * self.growth ** len(self.counts)
        edge = self.lo * self.growth**i
        return edge * math.sqrt(self.growth)

    def percentiles(self, qs: tuple[float, ...] = (0.5, 0.95, 0.99)) -> tuple[float, ...]:
        return tuple(self.quantile(q) for q in qs)
