"""Set-associative cache with true-LRU replacement.

The cache operates on *block addresses* (byte address >> block_bits);
callers do the shifting so one cache object never needs to know about
reference encoding.  Each set is a dict from tag to a caller-defined
state value: Python dicts preserve insertion order, so LRU is a delete
+ reinsert, which profiles faster than any list-based scheme at the
trace volumes we replay.

Two interfaces are exposed:

- ``access(block, write)`` — self-contained hit/miss accounting for
  uniprocessor simulations (miss-rate curves, L1 filtering);
- ``probe / touch / set_state / insert / remove`` — the primitive
  operations the MOSI snooping bus composes, where the per-line state
  is a coherence state.

The per-set dicts are built on first use.  A fresh cache builds them
empty; a cache whose final contents the compiled coherence kernel
handed over as arrays (:meth:`SetAssociativeCache.load_contents`)
builds them from those arrays, so a replay whose caches nothing reads
never pays for one Python dict per set.  The operations index the
plain instance attribute ``_set_dicts``; until the dicts are built it
holds an :class:`_Unbuilt` placeholder whose first lookup builds them,
so once built the operations run exactly as with eager dicts.  Other
readers use the building property ``_sets``.  (A class-level
descriptor named like the hot attribute would, on CPython 3.11, keep
every read of it unspecialized.)
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice, repeat
from typing import Hashable, Iterable, Iterator, Sequence

import numpy as np

from repro.memsys.config import CacheConfig


@dataclass
class CacheStats:
    """Counters kept by ``access``-mode simulations."""

    accesses: int = 0
    misses: int = 0
    writebacks: int = 0
    evictions: int = 0

    @property
    def hits(self) -> int:
        return self.accesses - self.misses

    @property
    def miss_ratio(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def merge(self, other: "CacheStats") -> None:
        self.accesses += other.accesses
        self.misses += other.misses
        self.writebacks += other.writebacks
        self.evictions += other.evictions


#: State value used by ``access``-mode (non-coherent) simulations.
CLEAN = 0
DIRTY = 1


class _Unbuilt(list):
    """A cache's per-set dicts before they are built.

    Indexing it builds them (:attr:`SetAssociativeCache._sets`), which
    replaces this placeholder with the plain list, and returns the
    asked-for set.  Only the operations index ``_set_dicts``; nothing
    else reads this placeholder.
    """

    __slots__ = ("_cache",)

    def __init__(self, cache: "SetAssociativeCache") -> None:
        super().__init__()
        self._cache = cache

    def __getitem__(self, index):
        return self._cache._sets[index]


class SetAssociativeCache:
    """One physical cache array.

    >>> from repro.memsys.config import CacheConfig
    >>> c = SetAssociativeCache(CacheConfig(size=4096, assoc=2, block=64))
    >>> c.access(0, write=False)   # cold miss
    False
    >>> c.access(0, write=False)   # now a hit
    True
    """

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self.stats = CacheStats()
        self._set_mask = config.set_mask
        self._n_sets = config.n_sets
        self._assoc = config.assoc
        # The per-set dicts (see _sets), or a placeholder until built.
        self._set_dicts: list[dict[int, Hashable]] = _Unbuilt(self)
        # Arrays handed over by load_contents, until the dicts are built.
        self._contents: tuple | None = None

    @property
    def _sets(self) -> list[dict[int, Hashable]]:
        """One dict per set, tag -> state, least recently used first.

        Built on first read, from the arrays :meth:`load_contents` handed
        over (which are then dropped), or empty when there are none.
        """
        if type(self._set_dicts) is list:
            return self._set_dicts
        sets: list[dict[int, Hashable]] = [{} for _ in range(self._n_sets)]
        contents, self._contents = self._contents, None
        if contents is not None:
            set_counts, blocks, states, state_values = contents
            if states is None:
                values: Iterable[Hashable] = repeat(CLEAN)
            else:
                values = [state_values[code] for code in states.tolist()]
            # islice over one (block, state) iterator is cheaper than
            # slicing two lists per set.
            pairs = zip(blocks.tolist(), values)
            for index, count in enumerate(set_counts.tolist()):
                if count:
                    sets[index] = dict(islice(pairs, count))
        self._set_dicts = sets
        return sets

    def load_contents(
        self,
        set_counts: np.ndarray,
        blocks: np.ndarray,
        states: np.ndarray | None = None,
        state_values: Sequence[Hashable] = (),
    ) -> None:
        """Replace the contents with arrays, built into dicts on first read.

        ``blocks`` lists the resident blocks set by set in index order,
        ``set_counts[s]`` of them for set ``s``, least recently used
        first.  ``states`` gives each line's state as an integer code,
        stored as ``state_values[code]``; without it every line is
        ``CLEAN``.  Statistics are left alone.
        """
        self._set_dicts = _Unbuilt(self)
        self._contents = (set_counts, blocks, states, state_values)

    # -- access-mode interface (uniprocessor / L1 filtering) ------------

    def access(self, block: int, write: bool) -> bool:
        """Simulate one access; returns True on hit.

        Misses insert the block (allocate-on-miss for both reads and
        writes, matching the UltraSPARC II's write-allocate caches) and
        evict the LRU way when the set is full, counting a writeback if
        the victim was dirty.
        """
        line_set = self._set_dicts[block & self._set_mask]
        self.stats.accesses += 1
        state = line_set.get(block)
        if state is not None:
            # Hit: refresh LRU position; a write dirties the line.
            del line_set[block]
            line_set[block] = DIRTY if write else state
            return True
        self.stats.misses += 1
        if len(line_set) >= self._assoc:
            victim, vstate = next(iter(line_set.items()))
            del line_set[victim]
            self.stats.evictions += 1
            if vstate == DIRTY:
                self.stats.writebacks += 1
        line_set[block] = DIRTY if write else CLEAN
        return False

    # -- primitive interface (composed by the coherence bus) ------------

    def probe(self, block: int) -> Hashable | None:
        """Return the line's state without touching LRU, or None."""
        return self._set_dicts[block & self._set_mask].get(block)

    def touch(self, block: int) -> None:
        """Refresh the LRU position of a resident line."""
        line_set = self._set_dicts[block & self._set_mask]
        state = line_set.pop(block)
        line_set[block] = state

    def set_state(self, block: int, state: Hashable) -> None:
        """Change a resident line's state and refresh its LRU position."""
        line_set = self._set_dicts[block & self._set_mask]
        if block not in line_set:
            raise KeyError(f"block {block:#x} not resident")
        del line_set[block]
        line_set[block] = state

    def insert(self, block: int, state: Hashable) -> tuple[int, Hashable] | None:
        """Insert a line, returning the evicted ``(block, state)`` if any."""
        line_set = self._set_dicts[block & self._set_mask]
        victim = None
        if block in line_set:
            del line_set[block]
        elif len(line_set) >= self._assoc:
            vblock, vstate = next(iter(line_set.items()))
            del line_set[vblock]
            victim = (vblock, vstate)
        line_set[block] = state
        return victim

    def remove(self, block: int) -> Hashable | None:
        """Remove a line (invalidation); returns its state or None."""
        return self._set_dicts[block & self._set_mask].pop(block, None)

    # -- introspection ---------------------------------------------------

    def is_empty(self) -> bool:
        """True when no line is resident; builds no per-set dicts."""
        if type(self._set_dicts) is list:
            # any() over the dicts runs at C speed; occupancy() would not.
            return not any(self._set_dicts)
        return self._contents is None or not self._contents[1].size

    def resident_blocks(self) -> Iterator[int]:
        """Iterate over all resident block addresses (test helper)."""
        for line_set in self._sets:
            yield from line_set

    def occupancy(self) -> int:
        """Number of resident lines."""
        return sum(len(s) for s in self._sets)

    def contains(self, block: int) -> bool:
        return block in self._set_dicts[block & self._set_mask]

    def set_of(self, block: int) -> int:
        """Index of the set this block maps to (test helper)."""
        return block & self._set_mask

    def flush(self) -> None:
        """Drop all contents (stats are retained)."""
        self._set_dicts = _Unbuilt(self)
        self._contents = None

    def reset_stats(self) -> None:
        self.stats = CacheStats()
