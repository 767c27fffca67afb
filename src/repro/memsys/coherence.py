"""MOSI snooping-bus coherence protocol.

This is the reproduction's model of the Sun E6000's snooping coherence
bus.  The observable the paper builds on is the *snoop copyback*: a
processor copying a line back onto the bus in response to another
processor's request, i.e. a miss satisfied by a cache holding the line
dirty (MODIFIED or OWNED).  ``CoherenceStats.c2c_transfers`` counts
exactly those events, and the per-line counts behind Figures 14 and 15
are kept in ``c2c_by_line``.

The protocol is directory-less: the bus mirrors cache contents in a
``holders`` map (block -> set of cache ids) so a snoop is an O(1)
lookup instead of probing every cache.  Caches report their evictions
back through the return value of ``insert``, keeping the mirror exact;
an invariant-checking helper is provided for the test suite.  After a
replay by the compiled coherence kernel the map arrives as per-block
holder bitmasks (:meth:`MOSIBus.load_holders`) and is built on first
use; the protocol reads the plain attribute ``_mirror`` and falls back
to the building property ``_holders`` only while it is None or empty.

An MSI variant (``protocol="msi"``) is provided for the protocol
ablation: without the OWNED state, a read snoop hitting a MODIFIED
line downgrades it to SHARED (memory takes ownership), so later misses
by third processors are served by memory rather than by a cache.
A MESI variant (``protocol="mesi"``) adds the EXCLUSIVE state: a read
miss with no other holders installs E, and a later local write
upgrades E->M *silently* — no bus transaction — which pays off on
private read-then-write data like freshly allocated objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from typing import Callable

import numpy as np

from repro.errors import ConfigError, SimulationError
from repro.memsys.cache import SetAssociativeCache
from repro.memsys.misses import MissClassifier, MissKind


class State(IntEnum):
    """Coherence line states (INVALID is represented by absence).

    MOSI uses SHARED/OWNED/MODIFIED; the MESI variant uses
    SHARED/EXCLUSIVE/MODIFIED; MSI only SHARED/MODIFIED.
    """

    SHARED = 1
    OWNED = 2
    MODIFIED = 3
    EXCLUSIVE = 4


#: The ``State`` member for each integer value (index 0 is INVALID,
#: never stored): the ``state_values`` an L2's integer-coded contents
#: are loaded with (:meth:`SetAssociativeCache.load_contents`).
#: Indexing a tuple is far cheaper than ``State(value)`` per line.
STATE_BY_VALUE = (None, State.SHARED, State.OWNED, State.MODIFIED, State.EXCLUSIVE)


#: Fill sources returned by ``read``/``write``.
FILL_HIT = "hit"
FILL_C2C = "c2c"
FILL_MEM = "mem"
FILL_UPGRADE = "upgrade"


@dataclass
class CacheSideStats:
    """Per-L2-cache counters."""

    accesses: int = 0
    misses: int = 0
    c2c_fills: int = 0
    mem_fills: int = 0
    upgrades: int = 0
    writebacks: int = 0
    invalidations_received: int = 0
    misses_by_kind: dict[MissKind, int] = field(
        default_factory=lambda: {k: 0 for k in MissKind}
    )

    @property
    def c2c_ratio(self) -> float:
        """Fraction of this cache's misses satisfied by another cache."""
        return self.c2c_fills / self.misses if self.misses else 0.0


@dataclass
class CoherenceStats:
    """Bus-wide counters and per-line communication footprint."""

    bus_reads: int = 0
    bus_read_exclusives: int = 0
    upgrades: int = 0
    silent_upgrades: int = 0  # MESI E->M transitions (no bus traffic)
    c2c_transfers: int = 0
    memory_fetches: int = 0
    writebacks: int = 0
    invalidations: int = 0
    c2c_by_line: dict[int, int] = field(default_factory=dict)
    touched_lines: set[int] = field(default_factory=set)

    @property
    def total_misses(self) -> int:
        return self.bus_reads + self.bus_read_exclusives

    @property
    def c2c_ratio(self) -> float:
        """Fraction of all misses satisfied cache-to-cache (Figure 8)."""
        total = self.total_misses
        return self.c2c_transfers / total if total else 0.0


class MOSIBus:
    """Snooping bus connecting a set of L2 caches.

    Parameters:
        caches: the L2 cache arrays, one per cache id (a cache may be
            shared by several processors; sharing is the caller's
            mapping from processor to cache id).
        protocol: ``"mosi"`` (default) or ``"msi"`` for the ablation.
        track_lines: keep per-line C2C counts and the touched-line set
            (needed for Figures 14/15; a little memory per distinct
            block).
        on_invalidate: optional hook ``(cache_id, block) -> None``
            called when a line is invalidated in a cache, so enclosing
            hierarchies can shoot down L1 copies.
    """

    def __init__(
        self,
        caches: list[SetAssociativeCache],
        protocol: str = "mosi",
        track_lines: bool = True,
        on_invalidate: Callable[[int, int], None] | None = None,
    ) -> None:
        if not caches:
            raise ConfigError("MOSIBus needs at least one cache")
        if protocol not in ("mosi", "msi", "mesi"):
            raise ConfigError(f"unknown protocol {protocol!r}")
        self.caches = caches
        self.protocol = protocol
        self.stats = CoherenceStats()
        self.cache_stats = [CacheSideStats() for _ in caches]
        self.classifiers = [MissClassifier() for _ in caches]
        # The holders mirror once built (see _holders), else None.
        self._mirror: dict[int, set[int]] | None = {}
        # Arrays handed over by load_holders, until the mirror is built.
        self._holder_masks: tuple[np.ndarray, np.ndarray] | None = None
        self._mosi = protocol == "mosi"
        self._mesi = protocol == "mesi"
        self._track = track_lines
        self._on_invalidate = on_invalidate

    @property
    def _holders(self) -> dict[int, set[int]]:
        """The mirror, block -> ids of the caches holding it.

        Built on first read from the bitmasks :meth:`load_holders`
        handed over (which are then dropped).  A fresh bus starts with
        an empty mirror, so ``self._mirror or self._holders`` reads the
        plain attribute except while the mirror is None or empty.
        """
        if self._mirror is not None:
            return self._mirror
        holders: dict[int, set[int]] = {}
        blocks, masks = self._holder_masks
        self._holder_masks = None
        held = masks != 0
        # Few distinct masks occur in practice: decompose each one once
        # instead of scanning every cache id per block.
        ids_of: dict[int, tuple[int, ...]] = {}
        for block, mask in zip(blocks[held].tolist(), masks[held].tolist()):
            ids = ids_of.get(mask)
            if ids is None:
                ids = tuple(cid for cid in range(len(self.caches)) if mask >> cid & 1)
                ids_of[mask] = ids
            holders[block] = set(ids)
        self._mirror = holders
        return holders

    def load_holders(self, blocks: np.ndarray, masks: np.ndarray) -> None:
        """Replace the mirror with arrays, built into the map on first read.

        ``masks[i]`` has bit ``c`` set when cache ``c`` holds
        ``blocks[i]``; blocks with an all-zero mask are held nowhere.
        """
        self._mirror = None
        self._holder_masks = (blocks, masks)

    # -- public operations ----------------------------------------------

    def read(self, cache_id: int, block: int) -> str:
        """A processor behind ``cache_id`` reads ``block``.

        Returns the fill source: ``"hit"``, ``"c2c"`` or ``"mem"``.
        """
        cache = self.caches[cache_id]
        side = self.cache_stats[cache_id]
        side.accesses += 1
        if self._track:
            self.stats.touched_lines.add(block)
        state = cache.probe(block)
        if state is not None:
            cache.touch(block)
            return FILL_HIT
        # Miss: classify, then issue a BusRd.
        side.misses += 1
        side.misses_by_kind[self.classifiers[cache_id].classify(block)] += 1
        self.stats.bus_reads += 1
        source = self._supply(cache_id, block, exclusive=False)
        if source == FILL_C2C:
            side.c2c_fills += 1
        else:
            side.mem_fills += 1
        state = State.SHARED
        if self._mesi and not (self._mirror or self._holders).get(block):
            state = State.EXCLUSIVE  # sole copy: silent-upgrade eligible
        self._install(cache_id, block, state)
        return source

    def write(self, cache_id: int, block: int) -> str:
        """A processor behind ``cache_id`` writes ``block``.

        Returns ``"hit"`` (already MODIFIED), ``"upgrade"`` (was
        SHARED/OWNED; others invalidated), ``"c2c"`` or ``"mem"`` (was
        absent; BusRdX issued).
        """
        cache = self.caches[cache_id]
        side = self.cache_stats[cache_id]
        side.accesses += 1
        if self._track:
            self.stats.touched_lines.add(block)
        state = cache.probe(block)
        if state == State.MODIFIED:
            cache.touch(block)
            return FILL_HIT
        if state == State.EXCLUSIVE:
            # MESI: sole clean copy; modify it without any bus traffic.
            self.stats.silent_upgrades += 1
            cache.set_state(block, State.MODIFIED)
            return FILL_HIT
        if state is not None:
            # Upgrade: invalidate every other holder, keep our copy.
            self.stats.upgrades += 1
            side.upgrades += 1
            self._invalidate_others(cache_id, block)
            cache.set_state(block, State.MODIFIED)
            return FILL_UPGRADE
        # Write miss: BusRdX fetches the line exclusively.
        side.misses += 1
        side.misses_by_kind[self.classifiers[cache_id].classify(block)] += 1
        self.stats.bus_read_exclusives += 1
        source = self._supply(cache_id, block, exclusive=True)
        if source == FILL_C2C:
            side.c2c_fills += 1
        else:
            side.mem_fills += 1
        self._invalidate_others(cache_id, block)
        self._install(cache_id, block, State.MODIFIED)
        return source

    # -- protocol internals ----------------------------------------------

    def _supply(self, requester: int, block: int, exclusive: bool) -> str:
        """Find the data source for a miss and apply snoop side effects."""
        holders = (self._mirror or self._holders).get(block)
        if holders:
            for holder_id in holders:
                holder = self.caches[holder_id]
                state = holder.probe(block)
                if state == State.EXCLUSIVE and not exclusive:
                    # Clean sole copy: drop to SHARED, memory supplies.
                    holder.set_state(block, State.SHARED)
                    continue
                if state in (State.MODIFIED, State.OWNED):
                    # Snoop copyback: the dirty holder supplies the line.
                    self.stats.c2c_transfers += 1
                    if self._track:
                        count = self.stats.c2c_by_line.get(block, 0)
                        self.stats.c2c_by_line[block] = count + 1
                    if not exclusive:
                        if self._mosi:
                            holder.set_state(block, State.OWNED)
                        else:
                            # MSI: memory takes ownership; the copyback
                            # doubles as a writeback, credited to the
                            # supplying holder like any other writeback.
                            holder.set_state(block, State.SHARED)
                            self.stats.writebacks += 1
                            self.cache_stats[holder_id].writebacks += 1
                    return FILL_C2C
            # Only clean sharers: memory supplies the data.
        self.stats.memory_fetches += 1
        return FILL_MEM

    def _invalidate_others(self, requester: int, block: int) -> None:
        """Invalidate every copy of ``block`` outside ``requester``."""
        mirror = self._mirror or self._holders
        holders = mirror.get(block)
        if not holders:
            return
        for holder_id in list(holders):
            if holder_id == requester:
                continue
            self.caches[holder_id].remove(block)
            holders.discard(holder_id)
            self.classifiers[holder_id].note_coherence_invalidation(block)
            self.cache_stats[holder_id].invalidations_received += 1
            self.stats.invalidations += 1
            if self._on_invalidate is not None:
                self._on_invalidate(holder_id, block)
        if not holders:
            del mirror[block]

    def _install(self, cache_id: int, block: int, state: State) -> None:
        """Insert the filled line, processing any eviction.

        Evictions propagate through ``on_invalidate`` just like
        coherence invalidations: an inclusive L2 must shoot down the
        L1 copies above an evicted line, otherwise a stale L1 line
        keeps serving hits after the L2 — and the bus's ``holders``
        mirror — have forgotten the block entirely (and a later writer
        elsewhere would never invalidate it).
        """
        victim = self.caches[cache_id].insert(block, state)
        self.classifiers[cache_id].note_insert(block)
        mirror = self._mirror or self._holders
        mirror.setdefault(block, set()).add(cache_id)
        if victim is None:
            return
        vblock, vstate = victim
        self.classifiers[cache_id].note_eviction(vblock)
        vholders = mirror.get(vblock)
        if vholders is not None:
            vholders.discard(cache_id)
            if not vholders:
                del mirror[vblock]
        if vstate in (State.MODIFIED, State.OWNED):
            self.stats.writebacks += 1
            self.cache_stats[cache_id].writebacks += 1
        if self._on_invalidate is not None:
            self._on_invalidate(cache_id, vblock)

    def reset_stats(self) -> None:
        """Zero all counters, keeping cache contents and history.

        Used to discard a warmup window: the caches stay warm and the
        miss classifiers keep their history, but the reported counts
        cover only the measurement interval — the paper's steady-state
        reporting (Section 2.1).
        """
        self.stats = CoherenceStats()
        self.cache_stats = [CacheSideStats() for _ in self.caches]

    # -- invariants (test + checker support) -------------------------------

    def holder_ids(self, block: int) -> frozenset[int]:
        """Cache ids the bus mirror believes hold ``block``."""
        return frozenset(self._holders.get(block, ()))

    def mirrored_blocks(self) -> frozenset[int]:
        """Every block the bus mirror believes is resident somewhere."""
        return frozenset(self._holders)

    def check_invariants(self) -> None:
        """Verify protocol invariants; raises SimulationError on violation.

        - single-writer: at most one MODIFIED copy, and if one exists it
          is the only copy;
        - single-owner: at most one OWNED copy per line;
        - mirror consistency: ``holders`` matches actual cache contents.
        """
        seen: dict[int, list[tuple[int, State]]] = {}
        for cid, cache in enumerate(self.caches):
            for block in cache.resident_blocks():
                seen.setdefault(block, []).append((cid, cache.probe(block)))
        for block, copies in seen.items():
            states = [s for _, s in copies]
            if states.count(State.MODIFIED) > 1:
                raise SimulationError(f"block {block:#x}: multiple MODIFIED copies")
            if State.MODIFIED in states and len(copies) > 1:
                raise SimulationError(f"block {block:#x}: MODIFIED is not exclusive")
            if State.EXCLUSIVE in states and len(copies) > 1:
                raise SimulationError(f"block {block:#x}: EXCLUSIVE is not exclusive")
            if states.count(State.OWNED) > 1:
                raise SimulationError(f"block {block:#x}: multiple OWNED copies")
            mirror = self._holders.get(block, set())
            actual = {cid for cid, _ in copies}
            if mirror != actual:
                raise SimulationError(
                    f"block {block:#x}: holders mirror {mirror} != actual {actual}"
                )
        for block, holders in self._holders.items():
            for cid in holders:
                if not self.caches[cid].contains(block):
                    raise SimulationError(
                        f"block {block:#x}: mirror says cache {cid} holds it"
                    )
