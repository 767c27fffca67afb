"""Batched coherent replay: the MOSI hierarchy path as a compiled kernel.

:func:`repro.memsys.fastpath.lru_miss_mask` vectorized the
single-cache sweeps, but the paper's headline figures (4-11, 14-16)
replay *multiprocessor* traces through the full
:class:`~repro.memsys.hierarchy.MemoryHierarchy` — split L1s, a MOSI
snooping bus, inclusion shoot-downs, miss classification — one
reference at a time in Python.  That path cannot be expressed as a
closed-form numpy recurrence: measurement on the bench workloads shows
conflict-free epochs between cross-CPU *written-shared* touches are
only ~40-200 references long (the round-robin quantum alone bounds
greedy epochs at 64), so epoch partitioning never amortizes the numpy
per-batch overhead and the issue's alternative branch applies: a
**state-vector step machine**, compiled from embedded C at first use
with the system C compiler and loaded through :mod:`ctypes`.

The kernel is a transliteration of the scalar machine, bit-identical
by construction and by test:

- per-set recency-ordered arrays replicate the dict-ordered LRU of
  :class:`~repro.memsys.cache.SetAssociativeCache` (insertion order =
  recency; index 0 = LRU);
- one open-addressing hash table keyed by L2 block carries everything
  the bus keys by line: the ``holders`` mirror (bitmask), the miss
  classifier's ever-held/invalidated sets (bitmasks per cache), the
  per-line C2C counts and the touched-line set;
- the round-robin quantum interleave and the warmup-discard split run
  inside the kernel session, exactly as ``run_trace`` schedules them.

After a replay the full machine state — cache contents in LRU order,
coherence states, holders mirror, classifier history, every counter —
is exported back into the Python objects, so a kernel-replayed
hierarchy is indistinguishable from a scalar-replayed one (the parity
suites in ``tests/memsys/test_fastpath_coherence.py`` compare the
complete state, and ``jmmw diffcheck`` diffs both paths against the
naive oracle machine).

Fallback conditions (the scalar path is always the reference):

- ``JMMW_FASTPATH=0`` / ``jmmw --no-fastpath`` / ``run_trace(...,
  fastpath=False)`` — the established escape hatches;
- no C compiler on the machine (``cc``/``gcc``/``clang``) or the
  one-time build fails: :func:`kernel_available` returns False and
  every replay silently uses the scalar loop;
- runtime invariant checking is active (``JMMW_CHECK=1``): the
  checker observes every reference, which only the scalar loop can
  feed;
- the hierarchy is not cold (a previous replay or manual accesses
  left state behind): the kernel replays whole traces from empty
  caches only;
- more than 64 L2 caches (the holders bitmask width).

The compiled ``.so`` is cached under ``$XDG_CACHE_HOME/jmmw`` (or
``~/.cache/jmmw``) keyed by a hash of the embedded source, so the
build cost is paid once per machine, not per process.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from itertools import islice
from pathlib import Path

import numpy as np

from repro import obs as _obs
from repro.memsys.block import INSTRUCTIONS_PER_IFETCH
from repro.memsys.coherence import CacheSideStats, CoherenceStats, State
from repro.memsys.misses import MissKind

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
#: refresh on L2 read hits (corrupts replacement decisions).
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

/* L1 access-mode (SetAssociativeCache.access, write=False). */
static int l1_access(Cache *c, uint64_t block, int64_t *ls) {
    ls[L_ACC]++;
    int64_t idx = cache_find(c, block);
    if (idx >= 0) { cache_to_mru(c, idx, 0); return 1; }
    ls[L_MISS]++;
    uint64_t vb; int32_t vs;
    if (cache_insert(c, block, 0, &vb, &vs)) ls[L_EVICT]++;
    return 0;
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


def _build_library() -> Path | None:
    """Compile the embedded source (cached by source hash), or None."""
    digest = hashlib.sha256(_C_SOURCE.encode()).hexdigest()[:16]
    out = _cache_dir() / f"coherence-{digest}.so"
    if out.exists():
        return out
    compiler = _find_compiler()
    if compiler is None:
        return None
    try:
        out.parent.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(prefix="jmmw-cc-") as tmp:
            src = Path(tmp) / "coherence.c"
            src.write_text(_C_SOURCE, encoding="utf-8")
            built = Path(tmp) / "coherence.so"
            result = subprocess.run(
                [compiler, "-O3", "-fPIC", "-shared", "-o", str(built), str(src)],
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
    _lib = lib
    return _lib


def kernel_available() -> bool:
    """Whether the compiled coherence kernel can be used here.

    The first call may pay a one-time compile (cached on disk by
    source hash); a missing compiler or failed build makes every
    default-path replay fall back to the scalar machine.
    """
    return _load_library() is not None


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
    # any() over the per-set dicts runs at C speed; occupancy() would
    # cost real milliseconds per replay on big-cache machines.
    return not any(any(cache._sets) for cache in caches)


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
    """Rebuild holders mirror, classifier sets and per-line counts."""
    used = int(lib.jmmw_table_used(m))
    keys = np.zeros(used, dtype=np.uint64)
    holders = np.zeros(used, dtype=np.uint64)
    ever = np.zeros(used, dtype=np.uint64)
    inval = np.zeros(used, dtype=np.uint64)
    c2c = np.zeros(used, dtype=np.int64)
    touched = np.zeros(used, dtype=np.uint8)
    if used:
        lib.jmmw_export_table(
            m, _ptr(keys, ctypes.c_uint64), _ptr(holders, ctypes.c_uint64),
            _ptr(ever, ctypes.c_uint64), _ptr(inval, ctypes.c_uint64),
            _ptr(c2c, ctypes.c_int64), _ptr(touched, ctypes.c_uint8),
        )
    bus = hierarchy.bus
    n_l2 = hierarchy.machine.n_l2_caches
    # Few distinct holder masks occur in practice; memoize the bit
    # decomposition instead of scanning all cache ids per block.
    mask_cids: dict[int, tuple[int, ...]] = {}
    sel = holders != 0
    holders_dict = {}
    for block, mask in zip(keys[sel].tolist(), holders[sel].tolist()):
        cids = mask_cids.get(mask)
        if cids is None:
            cids = tuple(cid for cid in range(n_l2) if mask >> cid & 1)
            mask_cids[mask] = cids
        holders_dict[block] = set(cids)
    bus._holders = holders_dict
    for cid, classifier in enumerate(bus.classifiers):
        ever_sel = (ever >> np.uint64(cid) & np.uint64(1)).astype(bool)
        inval_sel = (inval >> np.uint64(cid) & np.uint64(1)).astype(bool)
        classifier._ever_held = set(keys[ever_sel].tolist())
        classifier._invalidated = set(keys[inval_sel].tolist())
    if bus._track:
        sel = c2c > 0
        bus.stats.c2c_by_line = dict(
            zip(keys[sel].tolist(), c2c[sel].tolist())
        )
        bus.stats.touched_lines = set(keys[touched.astype(bool)].tolist())


def _export_caches(lib, m, hierarchy) -> None:
    """Rebuild every cache's per-set dicts in exact LRU order."""
    machine = hierarchy.machine
    groups = [
        (0, hierarchy._l1i, machine.l1i, None),
        (1, hierarchy._l1d, machine.l1d, None),
        (2, list(hierarchy.bus.caches), machine.l2, State),
    ]
    for which, caches, config, state_enum in groups:
        if which in (0, 1) and not hierarchy.include_l1:
            continue
        for idx, cache in enumerate(caches):
            total = int(lib.jmmw_cache_entries(m, which, idx))
            set_counts = np.zeros(config.n_sets, dtype=np.int32)
            blocks = np.zeros(max(total, 1), dtype=np.uint64)
            states = np.zeros(max(total, 1), dtype=np.int32)
            lib.jmmw_export_cache(
                m, which, idx, _ptr(set_counts, ctypes.c_int32),
                _ptr(blocks, ctypes.c_uint64), _ptr(states, ctypes.c_int32),
            )
            block_list = blocks.tolist()
            sets = cache._sets
            if state_enum:
                # Map int -> enum member by index (Enum.__call__ is
                # far too slow for tens of thousands of lines), then
                # consume (block, state) pairs per set via islice —
                # cheaper than materializing two slices per set.
                lut = [None, State.SHARED, State.OWNED,
                       State.MODIFIED, State.EXCLUSIVE]
                pairs = zip(block_list, [lut[s] for s in states.tolist()])
                for si, count in enumerate(set_counts.tolist()):
                    if count:  # cold precondition: empty dicts stay
                        sets[si] = dict(islice(pairs, count))
            else:
                blocks_iter = iter(block_list)
                for si, count in enumerate(set_counts.tolist()):
                    if count:
                        sets[si] = dict.fromkeys(islice(blocks_iter, count), 0)


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
#: into the hierarchy) and ``alloc`` (the kernel ran out of memory).
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


def run_trace_kernel(
    hierarchy, per_cpu_traces, quantum: int, warmup_fraction: float
) -> bool:
    """Replay through the compiled kernel; False means "use scalar".

    Arguments mirror :meth:`MemoryHierarchy.run_trace` (already
    validated by the caller).  On success the hierarchy's caches, bus
    mirror, classifier history and every counter hold exactly the
    state the scalar replay would have produced.
    """
    lib = _load_library()
    if _declined(lib, hierarchy):
        return False
    traces = [np.ascontiguousarray(t, dtype=np.uint64) for t in per_cpu_traces]
    lens = np.array([t.size for t in traces], dtype=np.int64)
    offs = np.zeros(len(traces), dtype=np.int64)
    np.cumsum(lens[:-1], out=offs[1:])
    flat = (
        np.concatenate(traces) if traces and lens.sum()
        else np.zeros(1, dtype=np.uint64)
    )
    m = _new_machine(lib, hierarchy)
    if not m:
        _obs.incr(f"{FALLBACK_COUNTER}/alloc")
        return False
    try:
        splits = np.array(
            [int(n * warmup_fraction) for n in lens.tolist()], dtype=np.int64
        )
        if warmup_fraction > 0.0:
            leaves = [(offs, splits), (offs + splits, lens - splits)]
        else:
            leaves = [(offs, lens)]
        for i, (leaf_offs, leaf_lens) in enumerate(leaves):
            if i > 0:
                lib.jmmw_reset_stats(m)
            bus_before = np.zeros(len(BUS_FIELDS), dtype=np.int64)
            lib.jmmw_get_stats(m, None, None, _ptr(bus_before, ctypes.c_int64), None)
            leaf_offs = np.ascontiguousarray(leaf_offs, dtype=np.int64)
            leaf_lens = np.ascontiguousarray(leaf_lens, dtype=np.int64)
            with _obs.span(
                "memsys/replay",
                refs=int(leaf_lens.sum()),
                procs=len(traces),
            ):
                rc = lib.jmmw_run(
                    m, _ptr(flat, ctypes.c_uint64),
                    _ptr(leaf_offs, ctypes.c_int64),
                    _ptr(leaf_lens, ctypes.c_int64), quantum,
                )
            if rc != 0:
                # Allocation failure mid-replay: the machine state is
                # unusable, but the Python hierarchy is untouched.
                _obs.incr(f"{FALLBACK_COUNTER}/alloc")
                return False
            bus_after = np.zeros(len(BUS_FIELDS), dtype=np.int64)
            lib.jmmw_get_stats(m, None, None, _ptr(bus_after, ctypes.c_int64), None)
            for name, before, after in zip(
                BUS_FIELDS, bus_before.tolist(), bus_after.tolist()
            ):
                if after - before:
                    _obs.incr(f"memsys/bus/{name}", after - before)
            _obs.incr("memsys/replay/refs", int(leaf_lens.sum()))
        _export_stats(lib, m, hierarchy)
        _export_table(lib, m, hierarchy)
        _export_caches(lib, m, hierarchy)
    finally:
        lib.jmmw_free(m)
    _obs.incr("memsys/fastpath/coherent_replay")
    return True


class KernelSession:
    """A persistent kernel machine for windowed (streamed) replay.

    Where :func:`run_trace_kernel` replays one materialized trace and
    frees its machine, a session keeps the machine alive across many
    :meth:`run` calls: caches, the sharing table, classifier history
    and every counter carry over, which is exactly what chunked replay
    needs — the machine *is* the carried state.  The lifecycle is
    ``begin`` (None means "kernel unavailable here: use the scalar
    loop"), any number of ``run``/``reset_stats`` calls, then
    ``finish`` to export everything back into the Python hierarchy
    (or ``abort`` to free without exporting).

    Unlike the materialized path there is no mid-stream fallback: the
    chunks already replayed cannot be replayed again scalar, so an
    allocation failure inside ``run`` raises
    :class:`~repro.errors.SimulationError`.
    """

    def __init__(self, lib, m, hierarchy) -> None:
        self._lib = lib
        self._m = m
        self._hierarchy = hierarchy
        self._closed = False

    @classmethod
    def begin(cls, hierarchy) -> "KernelSession | None":
        """Open a session, or None when the kernel cannot serve it."""
        lib = _load_library()
        if _declined(lib, hierarchy):
            return None
        m = _new_machine(lib, hierarchy)
        if not m:
            _obs.incr(f"{FALLBACK_COUNTER}/alloc")
            return None
        return cls(lib, m, hierarchy)

    def run(self, per_cpu_arrays, quantum: int) -> None:
        """Replay one window: ``per_cpu_arrays[cpu]`` is that
        processor's references for this window (None or empty for
        processors sitting the window out).

        The kernel round-robins a ``quantum`` per processor exactly
        like the materialized replay, so consecutive windows
        concatenate to the same global schedule.
        """
        from repro.errors import SimulationError

        if self._closed:
            raise SimulationError("kernel session already closed")
        traces = [
            np.ascontiguousarray(t, dtype=np.uint64)
            if t is not None else np.zeros(0, dtype=np.uint64)
            for t in per_cpu_arrays
        ]
        lens = np.array([t.size for t in traces], dtype=np.int64)
        offs = np.zeros(len(traces), dtype=np.int64)
        np.cumsum(lens[:-1], out=offs[1:])
        flat = (
            np.concatenate(traces) if traces and lens.sum()
            else np.zeros(1, dtype=np.uint64)
        )
        rc = self._lib.jmmw_run(
            self._m, _ptr(flat, ctypes.c_uint64),
            _ptr(offs, ctypes.c_int64), _ptr(lens, ctypes.c_int64), quantum,
        )
        if rc != 0:
            self.abort()
            raise SimulationError(
                "coherence kernel allocation failure mid-stream; the "
                "consumed chunks cannot be replayed scalar"
            )

    def reset_stats(self) -> None:
        """Zero every counter (warmup/measurement boundary); cache and
        sharing state are untouched."""
        self._lib.jmmw_reset_stats(self._m)

    def bus_counters(self) -> np.ndarray:
        """Current bus counters (for obs deltas around a phase)."""
        counters = np.zeros(len(BUS_FIELDS), dtype=np.int64)
        self._lib.jmmw_get_stats(
            self._m, None, None, _ptr(counters, ctypes.c_int64), None
        )
        return counters

    def publish_bus_delta(self, before: np.ndarray, refs: int) -> None:
        """Publish obs counter deltas since ``before`` (one phase)."""
        after = self.bus_counters()
        for name, b, a in zip(BUS_FIELDS, before.tolist(), after.tolist()):
            if a - b:
                _obs.incr(f"memsys/bus/{name}", a - b)
        _obs.incr("memsys/replay/refs", int(refs))

    def finish(self) -> None:
        """Export machine state into the hierarchy and free it."""
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
