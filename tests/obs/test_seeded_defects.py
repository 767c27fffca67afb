"""Seeded defects: prove the validation layers fail *loudly*.

A validation harness that has never caught a bug is indistinguishable
from one that cannot.  These tests monkeypatch a deliberate defect into
the production simulators — a skipped LRU refresh, a MOSI supply that
forgets to downgrade the dirty holder, a compiled sweep that forgets its
caches at chunk boundaries — and assert that the
differential checks report a divergence at the exact reference that
exposes it, and that the runtime invariant checker independently
catches the coherence violation.
"""

import pytest

from repro.errors import InvariantViolation
from repro.memsys import coherence
from repro.memsys.block import LOAD, STORE, encode_ref
from repro.memsys.cache import CLEAN, DIRTY, SetAssociativeCache
from repro.memsys.coherence import MOSIBus, State
from repro.memsys.config import CacheConfig, MachineConfig
from repro.memsys.hierarchy import MemoryHierarchy
from repro.obs.diffcheck import (
    diff_hierarchy_replay,
    diff_lru,
    diff_miss_curve,
)

SMALL_MACHINE = MachineConfig(
    n_procs=2,
    l1i=CacheConfig(size=512, assoc=2, block=32, name="L1I"),
    l1d=CacheConfig(size=512, assoc=2, block=32, name="L1D"),
    l2=CacheConfig(size=2048, assoc=2, block=64, name="L2"),
)


# -- defect 1: a hit that forgets to refresh its LRU position ---------------


def _access_without_lru_refresh(self, block, write):
    line_set = self._sets[block & self._set_mask]
    self.stats.accesses += 1
    if block in line_set:
        return True  # seeded defect: hit leaves the LRU order stale
    self.stats.misses += 1
    if len(line_set) >= self._assoc:
        victim, vstate = next(iter(line_set.items()))
        del line_set[victim]
        self.stats.evictions += 1
        if vstate == DIRTY:
            self.stats.writebacks += 1
    line_set[block] = DIRTY if write else CLEAN
    return False


def test_diff_lru_catches_missing_refresh(monkeypatch):
    # 1 2 1 3 1 in a single 2-way set: the refresh on the third access
    # decides whether block 1 or block 2 is evicted by block 3.
    blocks = [1, 2, 1, 3, 1]
    config = CacheConfig(size=128, assoc=2, block=64)  # one set
    assert diff_lru(blocks, config).ok  # control: healthy code agrees

    monkeypatch.setattr(SetAssociativeCache, "access", _access_without_lru_refresh)
    report = diff_lru(blocks, config)
    assert not report.ok
    assert report.divergence.index == 4
    assert "oracle hit" in report.divergence.detail
    assert "scalar miss" in report.divergence.detail
    assert "recent blocks" in report.divergence.context


# -- defect 2: a snoop copyback that leaves the holder MODIFIED -------------


def _supply_without_downgrade(self, requester, block, exclusive):
    holders = self._holders.get(block)
    if holders:
        for holder_id in holders:
            holder = self.caches[holder_id]
            state = holder.probe(block)
            if state == State.EXCLUSIVE and not exclusive:
                holder.set_state(block, State.SHARED)
                continue
            if state in (State.MODIFIED, State.OWNED):
                self.stats.c2c_transfers += 1
                if self._track:
                    count = self.stats.c2c_by_line.get(block, 0)
                    self.stats.c2c_by_line[block] = count + 1
                # Seeded defect: the dirty holder keeps MODIFIED
                # instead of dropping to OWNED/SHARED.
                return coherence.FILL_C2C
    self.stats.memory_fetches += 1
    return coherence.FILL_MEM


#: cpu0 dirties a line, cpu1 reads it, cpu0 writes it again.  With the
#: defect, cpu0 still sees MODIFIED on the second write ("hit") where
#: the specification says OWNED ("upgrade" with an invalidation).
X = 0x2000
TRACES = [
    [encode_ref(X, STORE), encode_ref(X, STORE)],
    [encode_ref(X, LOAD)],
]


def test_diffcheck_catches_sticky_modified(monkeypatch):
    control = diff_hierarchy_replay(
        [list(t) for t in TRACES], machine=SMALL_MACHINE, quantum=1
    )
    assert control.ok, control.render()

    monkeypatch.setattr(MOSIBus, "_supply", _supply_without_downgrade)
    report = diff_hierarchy_replay(
        [list(t) for t in TRACES], machine=SMALL_MACHINE, quantum=1
    )
    assert not report.ok
    assert report.divergence.index == 2  # cpu0's second store
    assert "model filled from 'hit'" in report.divergence.detail
    assert "'upgrade'" in report.divergence.detail
    assert "recent accesses" in report.divergence.context


def test_invariant_checker_catches_sticky_modified(monkeypatch):
    monkeypatch.setattr(MOSIBus, "_supply", _supply_without_downgrade)
    hierarchy = MemoryHierarchy(
        SMALL_MACHINE, check_invariants=True, check_sample=1
    )
    with pytest.raises(InvariantViolation, match="MODIFIED copy is not exclusive"):
        hierarchy.run_trace([list(t) for t in TRACES], quantum=1)


# -- defect 3: carried state dropped at every chunk boundary -----------------


def test_figure_diffchecks_catch_dropped_carried_state(monkeypatch):
    """The one-row-per-figure sweep check replays several chunks too,
    so a chunk-boundary defect fails it loudly."""
    from repro.memsys import fastpath_coherence

    if not fastpath_coherence.kernel_available():
        pytest.skip("the compiled kernel is unavailable (no C compiler?)")
    # Two blocks ping-ponging in one set: all hits after the cold
    # misses, unless a boundary forgets what the cache held.
    refs = [encode_ref(a * 64, LOAD) for a in [1, 9] * 70]
    assert diff_miss_curve(refs, [512], kind="data", assoc=2).ok

    monkeypatch.setattr(
        fastpath_coherence, "_defect", fastpath_coherence.SWEEP_DEFECT_FORGET_AT_FEED
    )
    report = diff_miss_curve(refs, [512], kind="data", assoc=2)
    assert not report.ok
    assert "fastpath chunk=" in report.divergence.detail
