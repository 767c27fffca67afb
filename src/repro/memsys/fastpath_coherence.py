"""The compiled kernel: coherent replay, miss-curve sweeps, code bursts.

One embedded C source, compiled at first use with the system C
compiler and loaded through :mod:`ctypes`, holds three steps: the MOSI
hierarchy replay, the Figure 12/13 miss-curve sweep and the code
bursts of trace generation.

The paper's headline figures (4-11, 14-16) replay *multiprocessor*
traces through the full :class:`~repro.memsys.hierarchy.MemoryHierarchy`
— split L1s, a MOSI snooping bus, inclusion shoot-downs, miss
classification — one reference at a time in Python.  That path cannot
be expressed as a closed-form numpy recurrence: measurement on the
bench workloads shows conflict-free epochs between cross-CPU
*written-shared* touches are only ~40-200 references long (the
round-robin quantum alone bounds greedy epochs at 64), so epoch
partitioning never amortizes the numpy per-batch overhead.  The
kernel is a **state-vector step machine** instead.

The kernel is a transliteration of the scalar machine, bit-identical
by construction and by test:

- per-set recency-ordered arrays replicate the dict-ordered LRU of
  :class:`~repro.memsys.cache.SetAssociativeCache` (insertion order =
  recency; index 0 = LRU);
- one open-addressing hash table keyed by L2 block carries everything
  the bus keys by line: the ``holders`` mirror (bitmask), the miss
  classifier's ever-held/invalidated sets (bitmasks per cache), the
  per-line C2C counts and the touched-line set;
- the round-robin quantum interleave runs inside the kernel over the
  per-processor slices of a phase, unequal lengths included: a
  processor drops out once its slice is spent, exactly as in the
  scalar loop.

Every hierarchy replay goes through one driver,
:meth:`repro.memsys.hierarchy.MemoryHierarchy.run_trace`, which touches
this module through two names: :meth:`KernelSession.begin`, the single
place the kernel accepts or declines a replay, and
:func:`run_trace_kernel`, which replays one whole warmup or measurement
phase through an accepted session in one ``jmmw_run`` call.

After a replay, :meth:`KernelSession.finish` copies every counter into
the hierarchy's stat objects, and the per-line C2C counts and
touched-line set into the bus stats.  The rest of the final state goes
to its owner as the numpy arrays the kernel's export fills: each
cache's per-set counts, blocks and states
(:meth:`~repro.memsys.cache.SetAssociativeCache.load_contents`), the
holder bitmasks (:meth:`~repro.memsys.coherence.MOSIBus.load_holders`)
and each classifier's ever-held and invalidated bitmasks
(:meth:`~repro.memsys.misses.MissClassifier.load_history`).  Each owner
builds its Python structure only when something first reads it, so a
figure that reads counters alone never pays for per-set dicts, the
holders map or miss history.  Built or not, a kernel-replayed
hierarchy is indistinguishable from a scalar-replayed one (the parity
suites in ``tests/memsys/test_fastpath_coherence.py`` compare the
complete state, and ``jmmw diffcheck`` diffs both paths against the
naive oracle machine).

Fallback conditions (the scalar path is always the reference):

- ``JMMW_FASTPATH=0`` / ``jmmw --no-fastpath`` / ``run_trace(...,
  fastpath=False)`` — the established escape hatches;
- runtime invariant checking is active (``JMMW_CHECK=1``): the
  checker observes every reference, which only the scalar loop can
  feed;
- :meth:`KernelSession.begin` declines, counting the reason under
  :data:`FALLBACK_COUNTER`: no C compiler on the machine
  (``cc``/``gcc``/``clang``) or the one-time build failed
  (``no-kernel``); more than 64 L2 caches, the holders bitmask width
  (``unsupported``); a hierarchy that is not cold, because a previous
  replay or manual accesses left state behind (``warm``); or a machine
  that cannot be allocated (``alloc``).

Once a session has accepted, there is no fallback: an allocation
failure inside the kernel raises :class:`~repro.errors.SimulationError`.

The second step is the miss-curve sweep of
:func:`repro.memsys.stream.simulate_miss_curve_stream`, the fast side of
:class:`~repro.memsys.multisim.MultiConfigSimulator`: one ``Cache`` per
geometry, built and accessed like the replay's stateless L1s
(``l1_access``), fed one reference class of each packed chunk, with
accesses and misses counted before and after the warmup split.
:class:`SweepSession` keeps that machine across chunks, so a chunk
boundary has nothing to carry.  A sweep asked of the step with the fast
path on that runs the scalar reference instead is counted under
:data:`SWEEP_FALLBACK_COUNTER` (``no-kernel``, or ``alloc`` when a
geometry's cache cannot be allocated), decided before any chunk is
consumed.

The third step is for trace generation:
``jmmw_burst`` is one instruction burst of
:meth:`repro.workloads.base.StreamBuilder.code_burst` (pick or continue
a segment, draw the burst length and loop window, emit the window's
fetches, draw and encode the stack loads and stores).  It draws
through the builder's ``numpy.random.Generator``, calling on its bit
generator the C functions numpy's methods call: ``next_double`` for
``random()``, ``random_bounded_uint64_fill`` for ``integers`` and
``random_standard_exponential`` for ``exponential``, the last two
from numpy's C-API static library ``numpy/random/lib/libnpyrandom.a``.
So its traces are byte-identical to the Python reference's by
construction, and Python draws between bursts stay in step: PCG64
keeps its buffered 32-bit half in the bit-generator state both sides
share.  :func:`burst_frame` hands a builder its link to the step; a
trace whose bursts ran in Python with the fast path on is counted
under :data:`BURST_FALLBACK_COUNTER` (``no-kernel``, or
``no-npyrandom`` when numpy ships no ``libnpyrandom.a`` and the
library is built without the burst step).

The compiled ``.so`` is cached under ``$XDG_CACHE_HOME/jmmw`` (or
``~/.cache/jmmw``) as ``coherence-<digest>.so``, the digest covering
the embedded source and, with the burst step, numpy's version and the
bytes of ``libnpyrandom.a``, so the build cost is paid once per
machine, not per process.  It is loaded on first use, never at
import.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import weakref
from functools import partial
from pathlib import Path

import numpy as np

from repro import obs as _obs
from repro.errors import ConfigError, SimulationError, WorkloadError
from repro.memsys.block import INSTRUCTIONS_PER_IFETCH
from repro.memsys.coherence import STATE_BY_VALUE, CacheSideStats, CoherenceStats
from repro.memsys.fastpath import fastpath_enabled
from repro.memsys.misses import MissKind
from repro.memsys.multisim import MissCurvePoint

#: Field order of the flat per-processor stats array, matching
#: :class:`repro.memsys.hierarchy.ProcessorStats` declaration order.
PROC_FIELDS = (
    "instructions", "ifetches", "loads", "stores",
    "l1i_accesses", "l1i_misses", "l1d_accesses", "l1d_misses",
    "l2_hits", "l2_misses", "l2_data_misses", "l2_instr_misses",
    "l2_load_hits", "l2_load_misses",
    "c2c_fills", "c2c_load_fills", "mem_fills", "mem_load_fills",
    "upgrades",
)

#: Bus counter order, matching :class:`CoherenceStats` scalar fields.
BUS_FIELDS = (
    "bus_reads", "bus_read_exclusives", "upgrades", "silent_upgrades",
    "c2c_transfers", "memory_fetches", "writebacks", "invalidations",
)

#: Per-L2 side counters followed by the three miss-kind buckets.
SIDE_FIELDS = (
    "accesses", "misses", "c2c_fills", "mem_fills", "upgrades",
    "writebacks", "invalidations_received",
)
_MISS_KINDS = (MissKind.COLD, MissKind.COHERENCE, MissKind.REPLACEMENT)
_N_SIDE = len(SIDE_FIELDS) + len(_MISS_KINDS)

_PROTOCOL_IDS = {"mosi": 0, "msi": 1, "mesi": 2}

#: Seeded-defect switch for the parity-gate tests: 0 = off,
#: 1 = drop the supplying holder's writeback credit on MSI copybacks
#: (re-introduces the pre-fix accounting bug), 2 = skip the LRU
#: refresh on L2 read hits (corrupts replacement decisions),
#: 3 = :data:`BURST_DEFECT_NO_REENTRY` (code bursts),
#: 4 = :data:`SWEEP_DEFECT_FORGET_AT_FEED` (miss-curve sweeps).
_defect = 0


def set_kernel_defect(defect: int) -> None:
    """Inject a deliberate kernel defect (tests only; 0 disables)."""
    global _defect
    _defect = int(defect)


_C_SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Coherence states; values match repro.memsys.coherence.State. */
#define ST_S 1
#define ST_O 2
#define ST_M 3
#define ST_E 4

/* Fill sources (returned by bus_read/bus_write). */
#define SRC_HIT 0
#define SRC_UPG 1
#define SRC_C2C 2
#define SRC_MEM 3

/* Per-processor stat slots (PROC_FIELDS order). */
enum {
    P_INSTR, P_IFETCH, P_LOADS, P_STORES,
    P_L1I_ACC, P_L1I_MISS, P_L1D_ACC, P_L1D_MISS,
    P_L2_HITS, P_L2_MISSES, P_L2_DMISS, P_L2_IMISS,
    P_L2_LHITS, P_L2_LMISS,
    P_C2C, P_C2C_L, P_MEM, P_MEM_L, P_UPG,
    N_PROC
};

/* Bus stat slots (BUS_FIELDS order). */
enum {
    B_READS, B_READX, B_UPG, B_SILENT, B_C2C, B_MEMF, B_WB, B_INVAL,
    N_BUS
};

/* Per-L2 side stat slots (SIDE_FIELDS order + miss kinds). */
enum {
    S_ACC, S_MISS, S_C2C, S_MEM, S_UPG, S_WB, S_INVR,
    S_K_COLD, S_K_COH, S_K_REPL,
    N_SIDE
};

/* L1 internal CacheStats slots per cache (accesses, misses, evictions). */
enum { L_ACC, L_MISS, L_EVICT, N_L1 };

/* One cache array: per-set recency-ordered entries, index 0 = LRU.  */
typedef struct {
    uint64_t *blocks;   /* n_sets * assoc */
    int32_t  *states;   /* n_sets * assoc, NULL for stateless L1s */
    int32_t  *count;    /* n_sets */
    uint64_t  set_mask; /* n_sets - 1 (power of two) */
    int64_t   assoc;
    int64_t   n_sets;
} Cache;

/* Block-keyed bus table: holders mirror + classifier history +
 * per-line footprint, one open-addressing lookup per event.  Keys are
 * block+1 so 0 marks an empty slot. */
typedef struct {
    uint64_t key;
    uint64_t holders;   /* bit per L2 cache id */
    uint64_t ever;      /* classifier ever_held, bit per cache id */
    uint64_t inval;     /* classifier invalidated, bit per cache id */
    int64_t  c2c;       /* c2c_by_line count */
    uint8_t  touched;   /* member of touched_lines */
} Entry;

typedef struct {
    Entry  *e;
    int64_t cap;        /* power of two */
    int64_t used;
} Table;

typedef struct {
    int64_t  n_procs, n_l2;
    int32_t  protocol;      /* 0 mosi, 1 msi, 2 mesi */
    int32_t  include_l1, track_lines, defect;
    int64_t  l1i_bits, l1d_bits, l2_bits;
    int64_t  instr_per_ifetch;
    int32_t *l2_of_cpu;     /* n_procs */
    Cache   *l1i, *l1d;     /* n_procs each */
    Cache   *l2;            /* n_l2 */
    Table    tbl;
    int64_t *proc;          /* n_procs * N_PROC */
    int64_t *side;          /* n_l2 * N_SIDE */
    int64_t *bus;           /* N_BUS */
    int64_t *l1s;           /* n_procs * 2 * N_L1 (i then d) */
    int32_t  oom;
} Machine;

static uint64_t mix64(uint64_t k) {
    k ^= k >> 33; k *= 0xff51afd7ed558ccdULL;
    k ^= k >> 33; k *= 0xc4ceb9fe1a85ec53ULL;
    k ^= k >> 33;
    return k;
}

static int tbl_init(Table *t, int64_t cap) {
    t->cap = cap; t->used = 0;
    t->e = calloc((size_t)cap, sizeof(Entry));
    return t->e != NULL;
}

static int tbl_grow(Table *t) {
    int64_t ncap = t->cap * 2;
    Entry *ne = calloc((size_t)ncap, sizeof(Entry));
    if (!ne) return 0;
    for (int64_t i = 0; i < t->cap; i++) {
        if (!t->e[i].key) continue;
        uint64_t h = mix64(t->e[i].key) & (uint64_t)(ncap - 1);
        while (ne[h].key) h = (h + 1) & (uint64_t)(ncap - 1);
        ne[h] = t->e[i];
    }
    free(t->e);
    t->e = ne; t->cap = ncap;
    return 1;
}

/* Find the entry for block, creating it zeroed if absent.  Any call
 * may grow the table: never hold an Entry* across another tbl_get. */
static Entry *tbl_get(Machine *m, uint64_t block) {
    Table *t = &m->tbl;
    if ((t->used + 1) * 10 >= t->cap * 7 && !tbl_grow(t)) {
        m->oom = 1;
        return &t->e[0];  /* poisoned; run() aborts on oom */
    }
    uint64_t key = block + 1;
    uint64_t h = mix64(key) & (uint64_t)(t->cap - 1);
    while (t->e[h].key && t->e[h].key != key)
        h = (h + 1) & (uint64_t)(t->cap - 1);
    if (!t->e[h].key) { t->e[h].key = key; t->used++; }
    return &t->e[h];
}

static Entry *tbl_find(Table *t, uint64_t block) {
    uint64_t key = block + 1;
    uint64_t h = mix64(key) & (uint64_t)(t->cap - 1);
    while (t->e[h].key) {
        if (t->e[h].key == key) return &t->e[h];
        h = (h + 1) & (uint64_t)(t->cap - 1);
    }
    return NULL;
}

static int cache_init(Cache *c, int64_t n_sets, int64_t assoc, int with_state) {
    c->n_sets = n_sets; c->assoc = assoc;
    c->set_mask = (uint64_t)(n_sets - 1);
    c->blocks = malloc((size_t)(n_sets * assoc) * sizeof(uint64_t));
    c->states = with_state
        ? malloc((size_t)(n_sets * assoc) * sizeof(int32_t)) : NULL;
    c->count = calloc((size_t)n_sets, sizeof(int32_t));
    return c->blocks && c->count && (!with_state || c->states);
}

static void cache_destroy(Cache *c) {
    free(c->blocks); free(c->states); free(c->count);
}

/* Index of block within its set's live entries, or -1. */
static int64_t cache_find(const Cache *c, uint64_t block) {
    int64_t s = (int64_t)(block & c->set_mask);
    int64_t base = s * c->assoc, n = c->count[s];
    for (int64_t i = 0; i < n; i++)
        if (c->blocks[base + i] == block) return base + i;
    return -1;
}

/* Move the entry at idx to the MRU end of its set, storing state. */
static void cache_to_mru(Cache *c, int64_t idx, int32_t state) {
    int64_t s = (int64_t)(c->blocks[idx] & c->set_mask);
    int64_t base = s * c->assoc, last = base + c->count[s] - 1;
    uint64_t b = c->blocks[idx];
    for (int64_t i = idx; i < last; i++) {
        c->blocks[i] = c->blocks[i + 1];
        if (c->states) c->states[i] = c->states[i + 1];
    }
    c->blocks[last] = b;
    if (c->states) c->states[last] = state;
}

/* Insert MRU; returns 1 and fills victim when an eviction happened. */
static int cache_insert(Cache *c, uint64_t block, int32_t state,
                        uint64_t *vblock, int32_t *vstate) {
    int64_t s = (int64_t)(block & c->set_mask);
    int64_t base = s * c->assoc, n = c->count[s];
    int64_t idx = cache_find(c, block);
    if (idx >= 0) { cache_to_mru(c, idx, state); return 0; }
    int victim = 0;
    if (n >= c->assoc) {
        *vblock = c->blocks[base];
        *vstate = c->states ? c->states[base] : 0;
        victim = 1;
        for (int64_t i = base; i < base + n - 1; i++) {
            c->blocks[i] = c->blocks[i + 1];
            if (c->states) c->states[i] = c->states[i + 1];
        }
        n--;
    }
    c->blocks[base + n] = block;
    if (c->states) c->states[base + n] = state;
    c->count[s] = (int32_t)(n + 1);
    return victim;
}

static int cache_remove(Cache *c, uint64_t block) {
    int64_t idx = cache_find(c, block);
    if (idx < 0) return 0;
    int64_t s = (int64_t)(block & c->set_mask);
    int64_t base = s * c->assoc, last = base + c->count[s] - 1;
    for (int64_t i = idx; i < last; i++) {
        c->blocks[i] = c->blocks[i + 1];
        if (c->states) c->states[i] = c->states[i + 1];
    }
    c->count[s]--;
    return 1;
}

/* L1 access-mode (SetAssociativeCache.access, write=False) on a
 * stateless cache: one scan, MRU first, then the hit (or, on a miss,
 * the LRU entry of a full set) moves out and the block goes in MRU. */
static int l1_access(Cache *c, uint64_t block, int64_t *ls) {
    int64_t s = (int64_t)(block & c->set_mask);
    uint64_t *set = c->blocks + s * c->assoc;
    int64_t n = c->count[s], i = n - 1;
    ls[L_ACC]++;
    while (i >= 0 && set[i] != block) i--;
    int hit = i >= 0;
    if (!hit) {
        ls[L_MISS]++;
        if (n < c->assoc) {
            c->count[s] = (int32_t)++n;
            i = n - 1;
        } else {
            ls[L_EVICT]++;
            i = 0;
        }
    }
    for (; i < n - 1; i++) set[i] = set[i + 1];
    set[n - 1] = block;
    return hit;
}

static void shoot_down_l1(Machine *m, int64_t cid, uint64_t block) {
    if (!m->include_l1) return;
    uint64_t base_addr = block << m->l2_bits;
    int64_t ri = (int64_t)1 << (m->l2_bits - m->l1i_bits);
    int64_t rd = (int64_t)1 << (m->l2_bits - m->l1d_bits);
    for (int64_t cpu = 0; cpu < m->n_procs; cpu++) {
        if (m->l2_of_cpu[cpu] != cid) continue;
        uint64_t fi = base_addr >> m->l1i_bits;
        for (int64_t sub = 0; sub < ri; sub++)
            cache_remove(&m->l1i[cpu], fi + (uint64_t)sub);
        uint64_t fd = base_addr >> m->l1d_bits;
        for (int64_t sub = 0; sub < rd; sub++)
            cache_remove(&m->l1d[cpu], fd + (uint64_t)sub);
    }
}

/* MOSIBus._supply: find the data source, apply snoop side effects. */
static int bus_supply(Machine *m, uint64_t block, int exclusive) {
    Entry *e = tbl_find(&m->tbl, block);
    uint64_t holders = e ? e->holders : 0;
    for (int64_t hid = 0; holders >> hid; hid++) {
        if (!((holders >> hid) & 1)) continue;
        Cache *hc = &m->l2[hid];
        int64_t idx = cache_find(hc, block);
        if (idx < 0) continue;  /* mirror is exact; defensive only */
        int32_t st = hc->states[idx];
        if (st == ST_E && !exclusive) {
            /* Clean sole copy: drop to SHARED, memory supplies. */
            cache_to_mru(hc, idx, ST_S);
            continue;
        }
        if (st == ST_M || st == ST_O) {
            /* Snoop copyback: the dirty holder supplies the line. */
            m->bus[B_C2C]++;
            if (m->track_lines) e->c2c++;
            if (!exclusive) {
                if (m->protocol == 0) {
                    cache_to_mru(hc, idx, ST_O);
                } else {
                    /* MSI: memory takes ownership; the copyback
                     * doubles as a writeback, credited to the
                     * supplying holder. */
                    cache_to_mru(hc, idx, ST_S);
                    m->bus[B_WB]++;
                    if (m->defect != 1)
                        m->side[hid * N_SIDE + S_WB]++;
                }
            }
            return SRC_C2C;
        }
    }
    m->bus[B_MEMF]++;
    return SRC_MEM;
}

static void bus_invalidate_others(Machine *m, int64_t req, uint64_t block) {
    Entry *e = tbl_find(&m->tbl, block);
    if (!e || !e->holders) return;
    for (int64_t hid = 0; e->holders >> hid; hid++) {
        if (!((e->holders >> hid) & 1) || hid == req) continue;
        cache_remove(&m->l2[hid], block);
        e->holders &= ~((uint64_t)1 << hid);
        e->inval |= (uint64_t)1 << hid;   /* classifier: coherence */
        m->side[hid * N_SIDE + S_INVR]++;
        m->bus[B_INVAL]++;
        shoot_down_l1(m, hid, block);
    }
}

static void bus_install(Machine *m, int64_t cid, uint64_t block, int32_t st) {
    uint64_t vb; int32_t vs;
    int victim = cache_insert(&m->l2[cid], block, st, &vb, &vs);
    Entry *e = tbl_get(m, block);
    e->ever |= (uint64_t)1 << cid;        /* classifier note_insert */
    e->inval &= ~((uint64_t)1 << cid);
    e->holders |= (uint64_t)1 << cid;
    if (!victim) return;
    Entry *ve = tbl_get(m, vb);           /* may grow; e is dead now */
    ve->inval &= ~((uint64_t)1 << cid);   /* classifier note_eviction */
    ve->holders &= ~((uint64_t)1 << cid);
    if (vs == ST_M || vs == ST_O) {
        m->bus[B_WB]++;
        m->side[cid * N_SIDE + S_WB]++;
    }
    shoot_down_l1(m, cid, vb);
}

static void classify_miss(Machine *m, int64_t cid, uint64_t block) {
    Entry *e = tbl_get(m, block);
    int slot = !((e->ever >> cid) & 1) ? S_K_COLD
             : ((e->inval >> cid) & 1) ? S_K_COH : S_K_REPL;
    m->side[cid * N_SIDE + slot]++;
}

static int bus_read(Machine *m, int64_t cid, uint64_t block) {
    int64_t *side = m->side + cid * N_SIDE;
    side[S_ACC]++;
    if (m->track_lines) tbl_get(m, block)->touched = 1;
    Cache *c = &m->l2[cid];
    int64_t idx = cache_find(c, block);
    if (idx >= 0) {
        if (m->defect != 2) cache_to_mru(c, idx, c->states[idx]);
        return SRC_HIT;
    }
    side[S_MISS]++;
    classify_miss(m, cid, block);
    m->bus[B_READS]++;
    int src = bus_supply(m, block, 0);
    side[src == SRC_C2C ? S_C2C : S_MEM]++;
    int32_t st = ST_S;
    if (m->protocol == 2) {
        Entry *e = tbl_find(&m->tbl, block);
        if (!e || !e->holders) st = ST_E;  /* sole copy */
    }
    bus_install(m, cid, block, st);
    return src;
}

static int bus_write(Machine *m, int64_t cid, uint64_t block) {
    int64_t *side = m->side + cid * N_SIDE;
    side[S_ACC]++;
    if (m->track_lines) tbl_get(m, block)->touched = 1;
    Cache *c = &m->l2[cid];
    int64_t idx = cache_find(c, block);
    int32_t st = idx >= 0 ? c->states[idx] : 0;
    if (idx >= 0 && st == ST_M) {
        cache_to_mru(c, idx, st);
        return SRC_HIT;
    }
    if (idx >= 0 && st == ST_E) {
        /* MESI: sole clean copy; modify without bus traffic. */
        m->bus[B_SILENT]++;
        cache_to_mru(c, idx, ST_M);
        return SRC_HIT;
    }
    if (idx >= 0) {
        /* Upgrade: invalidate other holders, keep our copy. */
        m->bus[B_UPG]++;
        side[S_UPG]++;
        bus_invalidate_others(m, cid, block);
        idx = cache_find(c, block);  /* unchanged, but stay exact */
        cache_to_mru(c, idx, ST_M);
        return SRC_UPG;
    }
    side[S_MISS]++;
    classify_miss(m, cid, block);
    m->bus[B_READX]++;
    int src = bus_supply(m, block, 1);
    side[src == SRC_C2C ? S_C2C : S_MEM]++;
    bus_invalidate_others(m, cid, block);
    bus_install(m, cid, block, ST_M);
    return src;
}

/* MemoryHierarchy.access + _l2_access for one encoded reference. */
static void step(Machine *m, int64_t cpu, uint64_t ref) {
    int kind = (int)(ref & 3);
    uint64_t addr = ref >> 2;
    int64_t *ps = m->proc + cpu * N_PROC;
    int write = 0, instr = 0;
    if (kind == 0) {            /* ifetch */
        ps[P_IFETCH]++;
        ps[P_INSTR] += m->instr_per_ifetch;
        if (m->include_l1) {
            ps[P_L1I_ACC]++;
            if (l1_access(&m->l1i[cpu], addr >> m->l1i_bits,
                          m->l1s + cpu * 2 * N_L1))
                return;
            ps[P_L1I_MISS]++;
        }
        instr = 1;
    } else if (kind == 2) {     /* store: write-through no-allocate L1D */
        ps[P_STORES]++;
        if (m->include_l1) {
            Cache *l1d = &m->l1d[cpu];
            int64_t idx = cache_find(l1d, addr >> m->l1d_bits);
            if (idx >= 0) cache_to_mru(l1d, idx, 0);
        }
        write = 1;
    } else {                    /* load */
        ps[P_LOADS]++;
        if (m->include_l1) {
            ps[P_L1D_ACC]++;
            if (l1_access(&m->l1d[cpu], addr >> m->l1d_bits,
                          m->l1s + (cpu * 2 + 1) * N_L1))
                return;
            ps[P_L1D_MISS]++;
        }
    }
    uint64_t block = addr >> m->l2_bits;
    int64_t cid = m->l2_of_cpu[cpu];
    int src = write ? bus_write(m, cid, block) : bus_read(m, cid, block);
    int load = !write && !instr;
    if (src == SRC_HIT) {
        ps[P_L2_HITS]++;
        if (load) ps[P_L2_LHITS]++;
    } else if (src == SRC_UPG) {
        ps[P_UPG]++;
    } else if (src == SRC_C2C) {
        ps[P_L2_MISSES]++; ps[P_C2C]++;
        if (load) ps[P_C2C_L]++;
    } else {
        ps[P_L2_MISSES]++; ps[P_MEM]++;
        if (load) ps[P_MEM_L]++;
    }
    if (src == SRC_C2C || src == SRC_MEM) {
        if (instr) ps[P_L2_IMISS]++;
        else {
            ps[P_L2_DMISS]++;
            if (load) ps[P_L2_LMISS]++;
        }
    }
}

Machine *jmmw_new(int64_t n_procs, int64_t n_l2, const int32_t *l2_of_cpu,
                  int32_t protocol, int32_t include_l1, int32_t track_lines,
                  int64_t l1i_sets, int64_t l1i_assoc, int64_t l1i_bits,
                  int64_t l1d_sets, int64_t l1d_assoc, int64_t l1d_bits,
                  int64_t l2_sets, int64_t l2_assoc, int64_t l2_bits,
                  int64_t instr_per_ifetch, int32_t defect) {
    Machine *m = calloc(1, sizeof(Machine));
    if (!m) return NULL;
    m->n_procs = n_procs; m->n_l2 = n_l2;
    m->protocol = protocol; m->include_l1 = include_l1;
    m->track_lines = track_lines; m->defect = defect;
    m->l1i_bits = l1i_bits; m->l1d_bits = l1d_bits; m->l2_bits = l2_bits;
    m->instr_per_ifetch = instr_per_ifetch;
    m->l2_of_cpu = malloc((size_t)n_procs * sizeof(int32_t));
    m->l1i = calloc((size_t)n_procs, sizeof(Cache));
    m->l1d = calloc((size_t)n_procs, sizeof(Cache));
    m->l2 = calloc((size_t)n_l2, sizeof(Cache));
    m->proc = calloc((size_t)(n_procs * N_PROC), sizeof(int64_t));
    m->side = calloc((size_t)(n_l2 * N_SIDE), sizeof(int64_t));
    m->bus = calloc(N_BUS, sizeof(int64_t));
    m->l1s = calloc((size_t)(n_procs * 2 * N_L1), sizeof(int64_t));
    int ok = m->l2_of_cpu && m->l1i && m->l1d && m->l2
          && m->proc && m->side && m->bus && m->l1s;
    if (ok) {
        memcpy(m->l2_of_cpu, l2_of_cpu, (size_t)n_procs * sizeof(int32_t));
        for (int64_t i = 0; ok && i < n_procs; i++) {
            ok = cache_init(&m->l1i[i], l1i_sets, l1i_assoc, 0)
              && cache_init(&m->l1d[i], l1d_sets, l1d_assoc, 0);
        }
        for (int64_t i = 0; ok && i < n_l2; i++)
            ok = cache_init(&m->l2[i], l2_sets, l2_assoc, 1);
        if (ok) ok = tbl_init(&m->tbl, 1 << 16);
    }
    if (!ok) { m->oom = 1; }
    return m;
}

void jmmw_free(Machine *m) {
    if (!m) return;
    for (int64_t i = 0; i < m->n_procs; i++) {
        if (m->l1i) cache_destroy(&m->l1i[i]);
        if (m->l1d) cache_destroy(&m->l1d[i]);
    }
    for (int64_t i = 0; i < m->n_l2; i++)
        if (m->l2) cache_destroy(&m->l2[i]);
    free(m->l1i); free(m->l1d); free(m->l2);
    free(m->l2_of_cpu); free(m->tbl.e);
    free(m->proc); free(m->side); free(m->bus); free(m->l1s);
    free(m);
}

/* Round-robin quantum replay over per-CPU slices of one flat array. */
int jmmw_run(Machine *m, const uint64_t *refs, const int64_t *offs,
             const int64_t *lens, int64_t quantum) {
    if (m->oom) return 1;
    int64_t *pos = calloc((size_t)m->n_procs, sizeof(int64_t));
    if (!pos) return 1;
    int live = 1;
    while (live) {
        live = 0;
        for (int64_t cpu = 0; cpu < m->n_procs; cpu++) {
            int64_t len = lens[cpu], p = pos[cpu];
            if (p >= len) continue;
            int64_t end = p + quantum < len ? p + quantum : len;
            const uint64_t *base = refs + offs[cpu];
            for (int64_t i = p; i < end; i++) step(m, cpu, base[i]);
            pos[cpu] = end;
            if (end < len) live = 1;
            if (m->oom) { free(pos); return 1; }
        }
    }
    free(pos);
    return m->oom;
}

/* Zero the reported counters (warmup discard); caches, classifier
 * history and L1-internal CacheStats stay, like
 * MemoryHierarchy.reset_stats + MOSIBus.reset_stats. */
void jmmw_reset_stats(Machine *m) {
    memset(m->proc, 0, (size_t)(m->n_procs * N_PROC) * sizeof(int64_t));
    memset(m->side, 0, (size_t)(m->n_l2 * N_SIDE) * sizeof(int64_t));
    memset(m->bus, 0, N_BUS * sizeof(int64_t));
    for (int64_t i = 0; i < m->tbl.cap; i++) {
        if (!m->tbl.e[i].key) continue;
        m->tbl.e[i].c2c = 0;
        m->tbl.e[i].touched = 0;
    }
}

void jmmw_get_stats(Machine *m, int64_t *proc, int64_t *side,
                    int64_t *bus, int64_t *l1s) {
    if (proc) memcpy(proc, m->proc,
                     (size_t)(m->n_procs * N_PROC) * sizeof(int64_t));
    if (side) memcpy(side, m->side,
                     (size_t)(m->n_l2 * N_SIDE) * sizeof(int64_t));
    if (bus) memcpy(bus, m->bus, N_BUS * sizeof(int64_t));
    if (l1s) memcpy(l1s, m->l1s,
                    (size_t)(m->n_procs * 2 * N_L1) * sizeof(int64_t));
}

int64_t jmmw_table_used(Machine *m) { return m->tbl.used; }

void jmmw_export_table(Machine *m, uint64_t *keys, uint64_t *holders,
                       uint64_t *ever, uint64_t *inval, int64_t *c2c,
                       uint8_t *touched) {
    int64_t j = 0;
    for (int64_t i = 0; i < m->tbl.cap; i++) {
        Entry *e = &m->tbl.e[i];
        if (!e->key) continue;
        keys[j] = e->key - 1;
        holders[j] = e->holders;
        ever[j] = e->ever;
        inval[j] = e->inval;
        c2c[j] = e->c2c;
        touched[j] = e->touched;
        j++;
    }
}

static Cache *pick_cache(Machine *m, int32_t which, int64_t idx) {
    if (which == 0) return &m->l1i[idx];
    if (which == 1) return &m->l1d[idx];
    return &m->l2[idx];
}

int64_t jmmw_cache_entries(Machine *m, int32_t which, int64_t idx) {
    Cache *c = pick_cache(m, which, idx);
    int64_t total = 0;
    for (int64_t s = 0; s < c->n_sets; s++) total += c->count[s];
    return total;
}

/* Entries in set order, LRU -> MRU within each set. */
void jmmw_export_cache(Machine *m, int32_t which, int64_t idx,
                       int32_t *set_counts, uint64_t *blocks,
                       int32_t *states) {
    Cache *c = pick_cache(m, which, idx);
    int64_t j = 0;
    for (int64_t s = 0; s < c->n_sets; s++) {
        int64_t base = s * c->assoc, n = c->count[s];
        set_counts[s] = (int32_t)n;
        for (int64_t i = 0; i < n; i++) {
            blocks[j] = c->blocks[base + i];
            if (states) states[j] = c->states ? c->states[base + i] : 0;
            j++;
        }
    }
}

/* ---- Miss-curve sweep: MultiConfigSimulator over packed chunks ----- */

#define SWEEP_DEFECT_FORGET_AT_FEED 4

/* One access-mode Cache per geometry, all fed one reference class.
 * The caches live across feeds, so a chunk boundary carries nothing. */
typedef struct {
    int64_t  n_geo;
    Cache   *caches;
    int64_t *bits;          /* block bits per geometry */
    int64_t *ls;            /* n_geo * N_L1 counters */
    int64_t *warm;          /* n_geo * 2: accesses, misses at the split */
    int64_t  ifetch, warm_ifetch;
    int32_t  want_instr, defect, fed;
} Sweep;

void jmmw_sweep_free(Sweep *m) {
    if (!m) return;
    if (m->caches)
        for (int64_t g = 0; g < m->n_geo; g++) cache_destroy(&m->caches[g]);
    free(m->caches); free(m->bits); free(m->ls); free(m->warm);
    free(m);
}

Sweep *jmmw_sweep_new(int64_t n_geo, const int64_t *n_sets,
                      const int64_t *assoc, const int64_t *block_bits,
                      int32_t want_instr, int32_t defect) {
    Sweep *m = calloc(1, sizeof(Sweep));
    if (!m) return NULL;
    m->n_geo = n_geo; m->want_instr = want_instr; m->defect = defect;
    m->caches = calloc((size_t)n_geo, sizeof(Cache));
    m->bits = malloc((size_t)n_geo * sizeof(int64_t));
    m->ls = calloc((size_t)(n_geo * N_L1), sizeof(int64_t));
    m->warm = calloc((size_t)(n_geo * 2), sizeof(int64_t));
    int ok = m->caches && m->bits && m->ls && m->warm;
    for (int64_t g = 0; ok && g < n_geo; g++) {
        ok = cache_init(&m->caches[g], n_sets[g], assoc[g], 0);
        m->bits[g] = block_bits[g];
    }
    if (!ok) { jmmw_sweep_free(m); return NULL; }
    return m;
}

static void sweep_range(Sweep *m, const uint64_t *refs, int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; i++) {
        int ifetch = (refs[i] & 3) == 0;
        m->ifetch += ifetch;
        if (ifetch != m->want_instr) continue;
        uint64_t addr = refs[i] >> 2;
        for (int64_t g = 0; g < m->n_geo; g++)
            l1_access(&m->caches[g], addr >> m->bits[g], m->ls + g * N_L1);
    }
}

/* Replay refs[0..n), the first split_local of them warmup.  Warmup is a
 * prefix of the trace, so the snapshot taken after the last chunk that
 * holds warmup references is the one at the split. */
void jmmw_sweep_feed(Sweep *m, const uint64_t *refs, int64_t n,
                     int64_t split_local) {
    if (m->fed++ && m->defect == SWEEP_DEFECT_FORGET_AT_FEED)
        for (int64_t g = 0; g < m->n_geo; g++)
            memset(m->caches[g].count, 0,
                   (size_t)m->caches[g].n_sets * sizeof(int32_t));
    sweep_range(m, refs, 0, split_local);
    if (split_local > 0) {      /* MultiConfigSimulator.mark_warm */
        for (int64_t g = 0; g < m->n_geo; g++) {
            m->warm[2 * g] = m->ls[g * N_L1 + L_ACC];
            m->warm[2 * g + 1] = m->ls[g * N_L1 + L_MISS];
        }
        m->warm_ifetch = m->ifetch;
    }
    sweep_range(m, refs, split_local, n);
}

/* Per geometry: accesses, misses, then both at the split; then the
 * instruction fetches in all and before the split. */
void jmmw_sweep_get(Sweep *m, int64_t *out) {
    for (int64_t g = 0; g < m->n_geo; g++) {
        out[4 * g] = m->ls[g * N_L1 + L_ACC];
        out[4 * g + 1] = m->ls[g * N_L1 + L_MISS];
        out[4 * g + 2] = m->warm[2 * g];
        out[4 * g + 3] = m->warm[2 * g + 1];
    }
    out[4 * m->n_geo] = m->ifetch;
    out[4 * m->n_geo + 1] = m->warm_ifetch;
}

#ifdef JMMW_BURST
/* ---- Code bursts: CodeLayout.burst + StreamBuilder.code_burst ------ */

#include <math.h>
#include <stdbool.h>

/* numpy's bit-generator interface, as numpy/random/bitgen.h declares
 * it (numpy/random/distributions.h would pull in Python.h). */
typedef struct bitgen {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;

/* From numpy/random/lib/libnpyrandom.a: the samplers behind
 * Generator.integers and Generator.exponential. */
void random_bounded_uint64_fill(bitgen_t *bitgen_state, uint64_t off,
                                uint64_t rng, intptr_t cnt, bool use_masked,
                                uint64_t *out);
double random_standard_exponential(bitgen_t *bitgen_state);

/* A burst frame (FRAME_FIELDS in Python): the inputs jmmw_burst reads,
 * then the results it writes.  Doubles travel as their bit patterns. */
enum {
    F_BITGEN, F_OUT, F_CAP, F_DEFECT, F_TABLE, F_PREV_SEG, F_PREV_POS,
    F_WINDOW, F_MEAN,
    F_RC, F_SEG, F_INSTR, F_END, F_FETCH, F_LOOPS, F_TAIL, F_DATA, F_ADDR,
    N_FRAME
};
/* Return codes (BURST_* in Python). */
enum { BURST_OK, BURST_NEG_FETCH, BURST_NEG_STACK, BURST_OVERRUN,
       BURST_DECLINE };

#define FETCH_BYTES 32      /* repro.memsys.block.IFETCH_BYTES */
#define FETCH_INSTR 8       /* repro.memsys.block.INSTRUCTIONS_PER_IFETCH */
#define REF_IFETCH 0
#define REF_LOAD 1
#define REF_STORE 2
#define MAX_MEAN 4096.0     /* BURST_MAX_MEAN */
#define ADDRESS_LIMIT ((int64_t)1 << 60)  /* BURST_ADDRESS_LIMIT */
#define DEFECT_NO_REENTRY 3

static double as_double(int64_t bits) {
    double d;
    memcpy(&d, &bits, sizeof d);
    return d;
}

/* Generator.random() */
static double draw_random(bitgen_t *bg) {
    return bg->next_double(bg->state);
}

/* Generator.integers(lo, hi, size=n) */
static void draw_integers(bitgen_t *bg, int64_t lo, int64_t hi, int64_t n,
                          uint64_t *out) {
    random_bounded_uint64_fill(bg, (uint64_t)lo, (uint64_t)(hi - lo - 1),
                               (intptr_t)n, false, out);
}

/* np.searchsorted(cum, u, side="right"), numpy's binary search. */
static int64_t search_right(const double *cum, int64_t n, double u) {
    int64_t lo = 0, hi = n;
    while (lo < hi) {
        int64_t mid = lo + ((hi - lo) >> 1);
        double c = cum[mid];
        if (u < c || c != c) hi = mid; else lo = mid + 1;
    }
    return lo;
}

/* One code burst of the packed layout f[F_TABLE] (n segments,
 * locality, offset_skew, then base and instructions per segment, then
 * the hotness CDF), continuing segment f[F_PREV_SEG] at f[F_PREV_POS]
 * unless that is negative.  Every draw is the reference's, in its
 * order.  The loop window's fetches, then the loads and stores at
 * stack address f[F_WINDOW], go to f[F_OUT].  A negative fetch address
 * stops before the stack slots are drawn, a negative stack address
 * after; both leave the address in f[F_ADDR].  A mean the buffer
 * cannot bound declines before any draw. */
void jmmw_burst(int64_t *f) {
    bitgen_t *bg = (bitgen_t *)(intptr_t)f[F_BITGEN];
    const int64_t *t = (const int64_t *)(intptr_t)f[F_TABLE];
    int64_t n_seg = t[0];
    const int64_t *seg = t + 3;
    const double *cum = (const double *)(t + 3 + 2 * n_seg);
    double mean = as_double(f[F_MEAN]);
    if (!(mean > 0.0 && mean <= MAX_MEAN) || f[F_WINDOW] >= ADDRESS_LIMIT) {
        f[F_RC] = BURST_DECLINE;
        return;
    }
    int64_t index, start;
    uint64_t draw;
    if (f[F_PREV_SEG] >= 0 && draw_random(bg) < as_double(t[1])) {
        index = f[F_PREV_SEG];
        if (draw_random(bg) < 0.45 && f[F_DEFECT] != DEFECT_NO_REENTRY) {
            start = f[F_PREV_POS];
        } else {
            draw_integers(bg, 0, 64, 1, &draw);
            start = (f[F_PREV_POS] + (int64_t)draw) % seg[2 * index + 1];
        }
    } else {
        index = search_right(cum, n_seg, draw_random(bg));
        if (index > n_seg - 1) index = n_seg - 1;
        double u = pow(draw_random(bg), as_double(t[2]));
        start = (int64_t)(u * (double)seg[2 * index + 1]);
    }
    int64_t base = seg[2 * index], instr = seg[2 * index + 1];
    int64_t n_instr = (int64_t)(mean * random_standard_exponential(bg));
    if (n_instr < 16) n_instr = 16;
    draw_integers(bg, 2, 9, 1, &draw);
    int64_t window_instr = (int64_t)draw * FETCH_INSTR;
    int64_t n_fetch = window_instr / FETCH_INSTR;
    int64_t n_loads = (int64_t)((double)n_instr * 0.25);
    int64_t n_data = n_loads + (int64_t)((double)n_instr * 0.10);
    f[F_SEG] = index;
    f[F_INSTR] = n_instr;
    f[F_END] = (start + n_instr) % instr;
    f[F_FETCH] = n_fetch;
    f[F_LOOPS] = n_instr / window_instr;
    f[F_TAIL] = (n_instr % window_instr + FETCH_INSTR - 1) / FETCH_INSTR;
    f[F_DATA] = n_data;
    if (n_fetch + n_data > f[F_CAP]) { f[F_RC] = BURST_OVERRUN; return; }
    /* CodeSegment.fetch_refs(start, window_instr), wrapping. */
    int64_t *out = (int64_t *)(intptr_t)f[F_OUT];
    int64_t code_bytes = instr * 4;
    int64_t offset = (start * 4) % code_bytes;
    offset -= offset % FETCH_BYTES;
    for (int64_t i = 0; i < n_fetch; i++) {
        int64_t addr = base + offset;
        if (addr < 0) { f[F_ADDR] = addr; f[F_RC] = BURST_NEG_FETCH; return; }
        out[i] = (addr << 2) | REF_IFETCH;
        offset += FETCH_BYTES;
        if (offset >= code_bytes) offset = 0;
    }
    /* The stack slots, drawn in one sized call, then checked. */
    int64_t *data = out + n_fetch;
    draw_integers(bg, 0, 64, n_data, (uint64_t *)data);
    int64_t window = f[F_WINDOW];
    if (window < 0) { f[F_ADDR] = window; f[F_RC] = BURST_NEG_STACK; return; }
    int64_t load = (window << 2) | REF_LOAD;
    int64_t store = load + (REF_STORE - REF_LOAD);
    for (int64_t i = 0; i < n_loads; i++) data[i] = load + 32 * data[i];
    for (int64_t i = n_loads; i < n_data; i++) data[i] = store + 32 * data[i];
    f[F_RC] = BURST_OK;
}
#endif
"""


# -- build + load ---------------------------------------------------------


def _cache_dir() -> Path:
    root = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return Path(root) / "jmmw"


def _find_compiler() -> str | None:
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


def _npyrandom_archive() -> Path | None:
    """numpy's C-API sampler library, ``numpy/random/lib/libnpyrandom.a``."""
    path = Path(np.__file__).parent / "random" / "lib" / "libnpyrandom.a"
    return path if path.is_file() else None


def _build_library() -> Path | None:
    """Compile the embedded source (cached by its digest), or None.

    With numpy's ``libnpyrandom.a`` the library also holds the burst
    step, linked against numpy's own samplers; the digest then covers
    numpy's version and the archive's bytes, since the ``.so`` freezes
    a copy of them.  Without the archive, or if that link fails, the
    library is built without the burst step.
    """
    archive = _npyrandom_archive()
    if archive is not None:
        built = _compile(archive)
        if built is not None:
            return built
    return _compile(None)


def _compile(archive: Path | None) -> Path | None:
    digest = hashlib.sha256(_C_SOURCE.encode())
    if archive is not None:
        digest.update(np.__version__.encode())
        digest.update(archive.read_bytes())
    out = _cache_dir() / f"coherence-{digest.hexdigest()[:16]}.so"
    if out.exists():
        return out
    compiler = _find_compiler()
    if compiler is None:
        return None
    link = [] if archive is None else ["-DJMMW_BURST", str(archive), "-lm"]
    try:
        out.parent.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(prefix="jmmw-cc-") as tmp:
            src = Path(tmp) / "coherence.c"
            src.write_text(_C_SOURCE, encoding="utf-8")
            built = Path(tmp) / "coherence.so"
            result = subprocess.run(
                [compiler, "-O3", "-fPIC", "-shared", "-o", str(built), str(src)]
                + link,
                capture_output=True,
                timeout=120,
            )
            if result.returncode != 0:
                return None
            # Atomic publish: concurrent workers race benignly.
            os.replace(built, out)
        return out
    except (OSError, subprocess.SubprocessError):
        return None


_lib: ctypes.CDLL | None = None
_lib_tried = False

_i64 = ctypes.c_int64
_i32 = ctypes.c_int32
_u64p = ctypes.POINTER(ctypes.c_uint64)
_i64p = ctypes.POINTER(ctypes.c_int64)
_i32p = ctypes.POINTER(ctypes.c_int32)
_u8p = ctypes.POINTER(ctypes.c_uint8)


def _load_library() -> ctypes.CDLL | None:
    global _lib, _lib_tried
    if _lib_tried:
        return _lib
    _lib_tried = True
    path = _build_library()
    if path is None:
        return None
    try:
        lib = ctypes.CDLL(str(path))
    except OSError:
        return None
    lib.jmmw_new.restype = ctypes.c_void_p
    lib.jmmw_new.argtypes = [
        _i64, _i64, _i32p, _i32, _i32, _i32,
        _i64, _i64, _i64, _i64, _i64, _i64, _i64, _i64, _i64,
        _i64, _i32,
    ]
    lib.jmmw_free.argtypes = [ctypes.c_void_p]
    lib.jmmw_run.restype = _i32
    lib.jmmw_run.argtypes = [ctypes.c_void_p, _u64p, _i64p, _i64p, _i64]
    lib.jmmw_reset_stats.argtypes = [ctypes.c_void_p]
    lib.jmmw_get_stats.argtypes = [ctypes.c_void_p, _i64p, _i64p, _i64p, _i64p]
    lib.jmmw_table_used.restype = _i64
    lib.jmmw_table_used.argtypes = [ctypes.c_void_p]
    lib.jmmw_export_table.argtypes = [
        ctypes.c_void_p, _u64p, _u64p, _u64p, _u64p, _i64p, _u8p,
    ]
    lib.jmmw_cache_entries.restype = _i64
    lib.jmmw_cache_entries.argtypes = [ctypes.c_void_p, _i32, _i64]
    lib.jmmw_export_cache.argtypes = [
        ctypes.c_void_p, _i32, _i64, _i32p, _u64p, _i32p,
    ]
    lib.jmmw_sweep_new.restype = ctypes.c_void_p
    lib.jmmw_sweep_new.argtypes = [_i64, _i64p, _i64p, _i64p, _i32, _i32]
    lib.jmmw_sweep_free.restype = None
    lib.jmmw_sweep_free.argtypes = [ctypes.c_void_p]
    lib.jmmw_sweep_feed.restype = None
    lib.jmmw_sweep_feed.argtypes = [ctypes.c_void_p, _u64p, _i64, _i64]
    lib.jmmw_sweep_get.restype = None
    lib.jmmw_sweep_get.argtypes = [ctypes.c_void_p, _i64p]
    if hasattr(lib, "jmmw_burst"):
        # One pointer in (a prebuilt c_void_p), nothing out: the
        # cheapest ctypes call; results travel in the frame.
        lib.jmmw_burst.restype = None
        lib.jmmw_burst.argtypes = [ctypes.c_void_p]
    _lib = lib
    return _lib


def kernel_available() -> bool:
    """Whether the compiled coherence kernel can be used here.

    The first call may pay a one-time compile (cached on disk by
    source hash); a missing compiler or failed build makes every
    default-path replay fall back to the scalar machine.
    """
    return _load_library() is not None


# -- code bursts ------------------------------------------------------------

#: Slots of a burst frame, the C ``F_*`` enum: what ``jmmw_burst``
#: reads (``mean`` as a double), then what it writes.
FRAME_FIELDS = (
    "bitgen", "out", "cap", "defect", "table", "prev_seg", "prev_pos",
    "window", "mean",
    "rc", "seg", "instructions", "end", "fetches", "loops", "tail", "data",
    "address",
)
(
    F_BITGEN, F_OUT, F_CAP, F_DEFECT, F_TABLE, F_PREV_SEG, F_PREV_POS,
    F_WINDOW, F_MEAN,
    F_RC, F_SEG, F_INSTR, F_END, F_FETCH, F_LOOPS, F_TAIL, F_DATA, F_ADDR,
) = range(len(FRAME_FIELDS))

#: ``frame[F_RC]`` after a burst, the C ``BURST_*`` enum.
BURST_OK, BURST_NEG_FETCH, BURST_NEG_STACK, BURST_OVERRUN, BURST_DECLINE = range(5)

#: References the process-wide output buffer holds: one burst's loop
#: window, loads and stores (512 KB, of which a burst touches a few KB).
BURST_CAPACITY = 1 << 16

#: Largest mean burst the compiled step serves (C ``MAX_MEAN``).  numpy's
#: exponential sampler never returns more than about 44.4, so such a
#: burst writes at most ``8 + 0.35 * 44.4 * 4096`` references, which fit
#: :data:`BURST_CAPACITY`.  Larger means run the reference step.
BURST_MAX_MEAN = 4096

#: Addresses the compiled step encodes lie in ``(-LIMIT, LIMIT)``, so
#: every packed reference fits ``int64`` (C ``ADDRESS_LIMIT``).  A layout
#: or stack window beyond it runs the reference step.
BURST_ADDRESS_LIMIT = 1 << 60

#: Seeded burst defect for the parity tests (``set_kernel_defect``):
#: never re-enter the loop just executed.
BURST_DEFECT_NO_REENTRY = 3

#: Traces whose code bursts ran in the Python reference although the
#: fast path was on, one counter per reason: ``no-kernel`` (no compiler,
#: or the build failed) and ``no-npyrandom`` (numpy's ``libnpyrandom.a``
#: was not found, so the library holds no burst step).
BURST_FALLBACK_COUNTER = "workloads/fastpath/burst_fallback"

_burst_out: np.ndarray | None = None


def burst_step_declines() -> str | None:
    """Why code bursts cannot run compiled here, or None when they can.

    Loads (and on first use builds) the library.
    """
    lib = _load_library()
    if lib is None:
        return "no-kernel"
    if not hasattr(lib, "jmmw_burst"):
        return "no-npyrandom"
    return None


class BurstFrame:
    """One stream builder's link to the compiled burst step.

    ``ints`` and ``floats`` view the frame's slots; :meth:`run` draws
    one burst from the generator the frame was opened on, into
    :attr:`out`, the process-wide output buffer, and :meth:`burst`
    fills the inputs, runs it and reads the results.  A burst's
    references are read out of the buffer before the next burst runs,
    so every builder of a process shares it (generation is
    single-threaded).
    """

    __slots__ = ("_bit_generator", "_array", "ints", "floats", "out", "run")

    def __init__(self, rng: np.random.Generator, lib: ctypes.CDLL) -> None:
        global _burst_out
        if _burst_out is None:
            _burst_out = np.empty(BURST_CAPACITY, dtype=np.int64)
        # The frame holds the bit generator's address: keep it alive.
        self._bit_generator = rng.bit_generator
        self._array = np.zeros(len(FRAME_FIELDS), dtype=np.int64)
        self.ints = memoryview(self._array)
        self.floats = self.ints.cast("B").cast("d")
        self.out = _burst_out
        self.ints[F_BITGEN] = rng.bit_generator.ctypes.bit_generator.value
        self.ints[F_OUT] = _burst_out.ctypes.data
        self.ints[F_CAP] = BURST_CAPACITY
        self.ints[F_DEFECT] = _defect
        self.run = partial(lib.jmmw_burst, ctypes.c_void_p(self._array.ctypes.data))

    def burst(self, table: int, prev_seg: int, prev_pos: int, window: int, mean):
        """One burst of the packed layout at ``table``, continuing segment
        ``prev_seg`` (-1: none) at ``prev_pos``, with locals at stack
        address ``window``.

        Returns ``(instructions, segment, end, fetches, loops, tail,
        data, stack_error)``: the loop window's fetch references, to be
        repeated ``loops`` times and then cut to ``tail`` lines, and the
        loads and stores.  ``stack_error`` is the ``ValueError`` to
        raise once the fetches are emitted, when ``window`` is negative.
        None, before any draw, when only the reference can draw the
        burst.  A negative fetch address raises at once.
        """
        ints = self.ints
        try:
            ints[F_WINDOW] = window
            self.floats[F_MEAN] = mean
        except (TypeError, ValueError, OverflowError):
            return None  # beyond a frame slot: the reference decides
        ints[F_TABLE] = table
        ints[F_PREV_SEG] = prev_seg
        ints[F_PREV_POS] = prev_pos
        self.run()
        rc, seg, n_instr, end, n_fetch, loops, tail, n_data = ints[F_RC:F_ADDR]
        if rc == BURST_DECLINE:
            return None
        if rc == BURST_NEG_FETCH:
            raise ValueError(f"negative address {ints[F_ADDR]:#x}")
        if rc == BURST_OVERRUN:
            raise WorkloadError(f"a {n_instr}-instruction burst overruns the burst buffer")
        stack_error = None
        if rc == BURST_NEG_STACK:
            stack_error = ValueError(f"negative address {ints[F_ADDR]:#x}")
        emitted = self.out[: n_fetch + n_data].tolist()
        return n_instr, seg, end, emitted[:n_fetch], loops, tail, emitted[n_fetch:], stack_error


def burst_frame(rng) -> BurstFrame | None:
    """A frame drawing ``rng``'s code bursts in the compiled step, or
    None when they run in the Python reference: ``JMMW_FASTPATH=0``
    (the kernel is not asked), a generator other than
    :class:`numpy.random.Generator`, or :func:`burst_step_declines`."""
    if not fastpath_enabled() or not isinstance(rng, np.random.Generator):
        return None
    if burst_step_declines() is not None:
        return None
    return BurstFrame(rng, _lib)


# -- replay ----------------------------------------------------------------


def _ptr(arr: np.ndarray, ctype):
    return arr.ctypes.data_as(ctypes.POINTER(ctype))


def _is_cold(hierarchy) -> bool:
    """True when nothing has run through this hierarchy yet."""
    bus = hierarchy.bus
    if bus.stats.total_misses or bus.stats.upgrades or bus.stats.silent_upgrades:
        return False
    if bus.mirrored_blocks():
        return False
    if any(c._ever_held or c._invalidated for c in bus.classifiers):
        return False
    if any(s.accesses for s in bus.cache_stats):
        return False
    if any(s.ifetches or s.loads or s.stores for s in hierarchy.proc_stats):
        return False
    caches = list(bus.caches) + list(hierarchy._l1i) + list(hierarchy._l1d)
    return all(cache.is_empty() for cache in caches)


def _supported(hierarchy) -> bool:
    machine = hierarchy.machine
    if machine.n_l2_caches > 64:
        return False  # holders bitmask width
    if hierarchy.include_l1 and (
        machine.l2.block_bits < machine.l1i.block_bits
        or machine.l2.block_bits < machine.l1d.block_bits
    ):
        return False
    return True


def _export_stats(lib, m, hierarchy) -> None:
    """Copy the kernel's counters into the hierarchy's stat objects."""
    from repro.memsys.hierarchy import ProcessorStats

    n = hierarchy.machine.n_procs
    n_l2 = hierarchy.machine.n_l2_caches
    proc = np.zeros(n * len(PROC_FIELDS), dtype=np.int64)
    side = np.zeros(n_l2 * _N_SIDE, dtype=np.int64)
    bus = np.zeros(len(BUS_FIELDS), dtype=np.int64)
    l1s = np.zeros(n * 2 * 3, dtype=np.int64)
    lib.jmmw_get_stats(
        m, _ptr(proc, ctypes.c_int64), _ptr(side, ctypes.c_int64),
        _ptr(bus, ctypes.c_int64), _ptr(l1s, ctypes.c_int64),
    )
    proc = proc.reshape(n, len(PROC_FIELDS))
    hierarchy.proc_stats = [
        ProcessorStats(**{
            name: int(proc[cpu, i]) for i, name in enumerate(PROC_FIELDS)
        })
        for cpu in range(n)
    ]
    stats = CoherenceStats(**{
        name: int(bus[i]) for i, name in enumerate(BUS_FIELDS)
    })
    side = side.reshape(n_l2, _N_SIDE)
    cache_stats = []
    for cid in range(n_l2):
        cs = CacheSideStats(**{
            name: int(side[cid, i]) for i, name in enumerate(SIDE_FIELDS)
        })
        cs.misses_by_kind = {
            kind: int(side[cid, len(SIDE_FIELDS) + i])
            for i, kind in enumerate(_MISS_KINDS)
        }
        cache_stats.append(cs)
    hierarchy.bus.stats = stats
    hierarchy.bus.cache_stats = cache_stats
    l1s = l1s.reshape(n, 2, 3)
    for cpu in range(n):
        for kind_idx, cache in ((0, hierarchy._l1i[cpu]), (1, hierarchy._l1d[cpu])):
            cache.stats.accesses = int(l1s[cpu, kind_idx, 0])
            cache.stats.misses = int(l1s[cpu, kind_idx, 1])
            cache.stats.evictions = int(l1s[cpu, kind_idx, 2])


def _export_table(lib, m, hierarchy) -> None:
    """Hand the sharing table to the bus and its classifiers; copy the
    per-line C2C counts and touched lines into the bus stats."""
    used = int(lib.jmmw_table_used(m))
    keys = np.empty(used, dtype=np.uint64)
    holders = np.empty(used, dtype=np.uint64)
    ever = np.empty(used, dtype=np.uint64)
    inval = np.empty(used, dtype=np.uint64)
    c2c = np.empty(used, dtype=np.int64)
    touched = np.empty(used, dtype=np.uint8)
    if used:
        lib.jmmw_export_table(
            m, _ptr(keys, ctypes.c_uint64), _ptr(holders, ctypes.c_uint64),
            _ptr(ever, ctypes.c_uint64), _ptr(inval, ctypes.c_uint64),
            _ptr(c2c, ctypes.c_int64), _ptr(touched, ctypes.c_uint8),
        )
    bus = hierarchy.bus
    bus.load_holders(keys, holders)
    for cid, classifier in enumerate(bus.classifiers):
        classifier.load_history(keys, ever, inval, cid)
    if bus._track:
        sel = c2c > 0
        bus.stats.c2c_by_line = dict(
            zip(keys[sel].tolist(), c2c[sel].tolist())
        )
        bus.stats.touched_lines = set(keys[touched.astype(bool)].tolist())


def _export_caches(lib, m, hierarchy) -> None:
    """Hand every cache its contents as arrays, LRU first in each set."""
    machine = hierarchy.machine
    groups = [(2, hierarchy.bus.caches, machine.l2)]
    if hierarchy.include_l1:
        groups += [(0, hierarchy._l1i, machine.l1i), (1, hierarchy._l1d, machine.l1d)]
    for which, caches, config in groups:
        for idx, cache in enumerate(caches):
            total = int(lib.jmmw_cache_entries(m, which, idx))
            set_counts = np.empty(config.n_sets, dtype=np.int32)
            blocks = np.empty(total, dtype=np.uint64)
            states = np.empty(total, dtype=np.int32) if which == 2 else None
            lib.jmmw_export_cache(
                m, which, idx, _ptr(set_counts, ctypes.c_int32),
                _ptr(blocks, ctypes.c_uint64),
                None if states is None else _ptr(states, ctypes.c_int32),
            )
            cache.load_contents(set_counts, blocks, states, STATE_BY_VALUE)


def _new_machine(lib, hierarchy):
    """Build one kernel machine for ``hierarchy``; falsy on failure."""
    machine = hierarchy.machine
    l2_of_cpu = np.array(hierarchy._l2_of_cpu, dtype=np.int32)
    return lib.jmmw_new(
        machine.n_procs, machine.n_l2_caches, _ptr(l2_of_cpu, ctypes.c_int32),
        _PROTOCOL_IDS[hierarchy.bus.protocol],
        int(hierarchy.include_l1), int(hierarchy.bus._track),
        machine.l1i.n_sets, machine.l1i.assoc, machine.l1i.block_bits,
        machine.l1d.n_sets, machine.l1d.assoc, machine.l1d.block_bits,
        machine.l2.n_sets, machine.l2.assoc, machine.l2.block_bits,
        INSTRUCTIONS_PER_IFETCH, _defect,
    )


#: Scalar-path fallbacks are counted under this prefix, one counter per
#: reason: ``no-kernel`` (no compiler or library), ``unsupported`` (a
#: geometry the kernel cannot hold), ``warm`` (state already replayed
#: into the hierarchy) and ``alloc`` (the kernel machine could not be
#: allocated).
FALLBACK_COUNTER = "memsys/fastpath/coherent_fallback"


def _declined(lib, hierarchy) -> bool:
    """Whether the kernel cannot serve ``hierarchy``; counts the reason."""
    if lib is None:
        reason = "no-kernel"
    elif not _supported(hierarchy):
        reason = "unsupported"
    elif not _is_cold(hierarchy):
        reason = "warm"
    else:
        return False
    _obs.incr(f"{FALLBACK_COUNTER}/{reason}")
    return True


def run_trace_kernel(session, phase, quantum: int) -> None:
    """Replay one warmup or measurement phase through ``session``.

    ``phase`` holds each processor's ``uint64`` slice of the phase, of
    any lengths (empty ones included).  The slices are concatenated and
    played in one ``jmmw_run`` call, whose round-robin over them is the
    scalar loop's schedule.  A failure inside the kernel frees the
    machine and raises :class:`~repro.errors.SimulationError`.  Returns
    None: perfbench's probe on this name (``perfbench/layers.py``)
    would count any other value as one more kernel-served replay.
    """
    if session._closed:
        raise SimulationError("kernel session already closed")
    lens = np.array([t.size for t in phase], dtype=np.int64)
    offs = np.zeros(len(phase), dtype=np.int64)
    np.cumsum(lens[:-1], out=offs[1:])
    flat = np.concatenate(phase) if lens.sum() else np.zeros(1, dtype=np.uint64)
    rc = session._lib.jmmw_run(
        session._m, _ptr(flat, ctypes.c_uint64),
        _ptr(offs, ctypes.c_int64), _ptr(lens, ctypes.c_int64), quantum,
    )
    if rc != 0:
        session.abort()
        raise SimulationError("coherence kernel allocation failure mid-replay")


class KernelSession:
    """A kernel machine for one hierarchy replay.

    The machine stays alive across the replay's phases: caches, the
    sharing table and classifier history carry from the warmup phase
    into the measurement phase, and :meth:`reset_stats` zeroes the
    counters between them.  The lifecycle is :meth:`begin` (None means
    "the kernel cannot serve this hierarchy: use the scalar loop"), one
    :func:`run_trace_kernel` call per phase, then :meth:`finish` to
    hand everything back to the Python hierarchy (or :meth:`abort` to
    free without exporting).

    Once begun there is no fallback: an allocation failure inside the
    kernel raises :class:`~repro.errors.SimulationError`.
    """

    def __init__(self, lib, m, hierarchy) -> None:
        self._lib = lib
        self._m = m
        self._hierarchy = hierarchy
        self._closed = False

    @classmethod
    def begin(cls, hierarchy) -> "KernelSession | None":
        """Open a session, or None when the kernel cannot serve it.

        The single place the kernel accepts or declines a replay; each
        decline is counted under :data:`FALLBACK_COUNTER`.
        """
        lib = _load_library()
        if _declined(lib, hierarchy):
            return None
        m = _new_machine(lib, hierarchy)
        if not m:
            _obs.incr(f"{FALLBACK_COUNTER}/alloc")
            return None
        return cls(lib, m, hierarchy)

    def reset_stats(self) -> None:
        """Zero every counter (warmup/measurement boundary); cache and
        sharing state are untouched."""
        self._lib.jmmw_reset_stats(self._m)

    def bus_counters(self) -> list[int]:
        """Current bus counters, in :data:`BUS_FIELDS` order."""
        counters = np.zeros(len(BUS_FIELDS), dtype=np.int64)
        self._lib.jmmw_get_stats(
            self._m, None, None, _ptr(counters, ctypes.c_int64), None
        )
        return counters.tolist()

    def finish(self) -> None:
        """Hand the machine's final state to the hierarchy and free it.

        Counters are copied now; cache contents, the holders mirror and
        classifier history go over as numpy-owned arrays, built into
        Python structures only when first read.
        """
        if self._closed:
            return
        self._closed = True
        try:
            _export_stats(self._lib, self._m, self._hierarchy)
            _export_table(self._lib, self._m, self._hierarchy)
            _export_caches(self._lib, self._m, self._hierarchy)
        finally:
            self._lib.jmmw_free(self._m)
        _obs.incr("memsys/fastpath/coherent_replay")

    def abort(self) -> None:
        """Free the machine without exporting (error paths)."""
        if self._closed:
            return
        self._closed = True
        self._lib.jmmw_free(self._m)


# -- miss-curve sweeps -------------------------------------------------------

#: Miss-curve sweeps that ran the scalar reference although the fast
#: path was on, one counter per reason: ``no-kernel`` (no compiler, or
#: the build failed) and ``alloc`` (a geometry's cache could not be
#: allocated).
SWEEP_FALLBACK_COUNTER = "memsys/fastpath/miss_curve_fallback"

#: Seeded sweep defect for the parity tests (``set_kernel_defect``):
#: every geometry forgets its contents at each feed after the first.
SWEEP_DEFECT_FORGET_AT_FEED = 4


class SweepSession:
    """One miss-curve sweep in the compiled step.

    The step holds one cache per geometry, the kernel's ``Cache``
    accessed through the same ``l1_access`` as its L1s, and keeps them
    across :meth:`feed` calls, so a chunk boundary carries nothing.  The
    machine is freed when the session is collected.
    """

    def __init__(self, lib, m, sizes: list[int]) -> None:
        self._lib = lib
        self._m = m
        self._sizes = sizes
        weakref.finalize(self, lib.jmmw_sweep_free, m)

    @classmethod
    def begin(cls, configs, kind: str) -> "SweepSession | None":
        """A sweep of ``kind`` references through ``configs``, or None
        when only the scalar reference can run it; each decline is
        counted under :data:`SWEEP_FALLBACK_COUNTER`."""
        lib = _load_library()
        reason = "no-kernel"
        if lib is not None:
            columns = [
                np.array([getattr(c, name) for c in configs], dtype=np.int64)
                for name in ("n_sets", "assoc", "block_bits")
            ]
            m = lib.jmmw_sweep_new(
                len(configs), *(_ptr(col, ctypes.c_int64) for col in columns),
                int(kind == "instr"), _defect,
            )
            if m:
                return cls(lib, m, [c.size for c in configs])
            reason = "alloc"
        _obs.incr(f"{SWEEP_FALLBACK_COUNTER}/{reason}")
        return None

    def feed(self, refs, warm: int) -> None:
        """Replay one chunk of packed references whose first ``warm``
        lie inside the warmup window."""
        refs = np.ascontiguousarray(refs, dtype=np.uint64)
        if refs.ndim != 1 or not 0 <= warm <= refs.size:
            raise ConfigError(
                f"a sweep chunk must be one-dimensional with 0 <= warm <= its "
                f"length, got shape {refs.shape} and warm={warm}"
            )
        self._lib.jmmw_sweep_feed(
            self._m, _ptr(refs, ctypes.c_uint64), refs.size, warm
        )

    def points(self) -> list[MissCurvePoint]:
        """Post-warmup points, counted as
        :meth:`~repro.memsys.multisim.MultiConfigSimulator.results` counts
        them."""
        n = len(self._sizes)
        out = np.zeros(4 * n + 2, dtype=np.int64)
        self._lib.jmmw_sweep_get(self._m, _ptr(out, ctypes.c_int64))
        *counts, ifetches, warm_ifetches = out.tolist()
        instr = (ifetches - warm_ifetches) * INSTRUCTIONS_PER_IFETCH
        points = []
        for g, size in enumerate(self._sizes):
            accesses, misses, warm_accesses, warm_misses = counts[4 * g : 4 * g + 4]
            misses -= warm_misses
            points.append(MissCurvePoint(
                size=size,
                accesses=accesses - warm_accesses,
                misses=misses,
                mpki=1000.0 * misses / instr if instr else 0.0,
            ))
        return points
