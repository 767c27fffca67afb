"""Miss classification.

The paper distinguishes misses satisfied from memory from misses
satisfied by another processor's cache (sharing/coherence misses), and
discusses cold vs. capacity effects when comparing shared and private
L2 caches (Section 5.3).  We classify every L2 miss into the classic
three-way taxonomy:

- ``COLD`` — the block was never resident in this cache before;
- ``COHERENCE`` — the block was resident but was invalidated by
  another processor's write (the miss would not have occurred on a
  uniprocessor);
- ``REPLACEMENT`` — capacity/conflict: the block was evicted by this
  cache's own replacement decisions.

After a replay by the compiled coherence kernel a classifier's history
arrives as per-block bitmasks (:meth:`MissClassifier.load_history`) and
is built into its two sets on first use.
"""

from __future__ import annotations

from enum import Enum

import numpy as np


class MissKind(Enum):
    """Why an access missed."""

    COLD = "cold"
    COHERENCE = "coherence"
    REPLACEMENT = "replacement"


class MissClassifier:
    """Tracks per-cache history needed to classify misses.

    One classifier serves one cache.  ``ever_held`` grows with the
    footprint of the measurement interval (bounded by the number of
    distinct blocks referenced, not by the simulated machine's RAM).
    """

    def __init__(self) -> None:
        # (ever held, invalidated) once built (see _built), else None.
        self._history: tuple[set[int], set[int]] | None = (set(), set())
        # Arrays handed over by load_history, until the sets are built.
        self._history_masks: tuple | None = None

    def _built(self) -> tuple[set[int], set[int]]:
        """Both sets, built from the arrays :meth:`load_history` handed
        over (which are then dropped) if that has not happened yet.

        The pair is never empty, so ``self._history or self._built()``
        reads the plain attribute once built.
        """
        if self._history is None:
            blocks, ever_held, invalidated, cache_id = self._history_masks
            self._history_masks = None
            bit = np.uint64(1 << cache_id)
            self._history = (
                set(blocks[(ever_held & bit) != 0].tolist()),
                set(blocks[(invalidated & bit) != 0].tolist()),
            )
        return self._history

    @property
    def _ever_held(self) -> set[int]:
        """Blocks this cache has held."""
        return self._built()[0]

    @property
    def _invalidated(self) -> set[int]:
        """Blocks a remote write invalidated here since this cache last
        held them."""
        return self._built()[1]

    def load_history(
        self,
        blocks: np.ndarray,
        ever_held: np.ndarray,
        invalidated: np.ndarray,
        cache_id: int,
    ) -> None:
        """Replace the history with arrays, built into sets on first read.

        ``ever_held[i]`` and ``invalidated[i]`` are bitmasks over cache
        ids for ``blocks[i]``; this classifier's cache is bit
        ``cache_id``.  The arrays may be shared by every classifier on
        one bus.
        """
        self._history = None
        self._history_masks = (blocks, ever_held, invalidated, cache_id)

    def note_insert(self, block: int) -> None:
        """Record that the cache now holds ``block``."""
        ever_held, invalidated = self._history or self._built()
        ever_held.add(block)
        invalidated.discard(block)

    def note_coherence_invalidation(self, block: int) -> None:
        """Record that a remote write invalidated ``block`` here."""
        (self._history or self._built())[1].add(block)

    def note_eviction(self, block: int) -> None:
        """Record a local replacement decision for ``block``."""
        (self._history or self._built())[1].discard(block)

    def classify(self, block: int) -> MissKind:
        """Classify a miss on ``block`` (call before note_insert)."""
        ever_held, invalidated = self._history or self._built()
        if block not in ever_held:
            return MissKind.COLD
        if block in invalidated:
            return MissKind.COHERENCE
        return MissKind.REPLACEMENT
