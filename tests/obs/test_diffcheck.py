"""Differential-validation oracles and diff drivers."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.memsys.block import IFETCH, LOAD, STORE, encode_ref
from repro.memsys.config import CacheConfig, MachineConfig
from repro.obs.diffcheck import (
    DiffReport,
    Divergence,
    OracleCoherentMachine,
    OracleLRUCache,
    diff_hierarchy_replay,
    diff_lru,
    diff_miss_curve,
    diff_stackdist,
    oracle_stack_histogram,
    reference_miss_flags,
)

#: A machine small enough that short traces evict, upgrade and write back.
SMALL_MACHINE = MachineConfig(
    n_procs=2,
    l1i=CacheConfig(size=512, assoc=2, block=32, name="L1I"),
    l1d=CacheConfig(size=512, assoc=2, block=32, name="L1D"),
    l2=CacheConfig(size=2048, assoc=2, block=64, name="L2"),
)


def random_trace(rng: np.random.Generator, n_refs: int) -> list[int]:
    """Refs over a small footprint: conflict, sharing, all three kinds."""
    addrs = rng.integers(0, 256, size=n_refs) * 32
    kinds = rng.choice([IFETCH, LOAD, STORE], size=n_refs, p=[0.4, 0.4, 0.2])
    return [encode_ref(int(a), int(k)) for a, k in zip(addrs, kinds)]


# -- reports -----------------------------------------------------------------


def test_report_render_ok_and_fail():
    ok = DiffReport(name="x", n_refs=10, checks=2)
    assert ok.ok
    assert "[ok]" in ok.render() and "10 refs" in ok.render()
    bad = DiffReport(
        name="x", n_refs=10, checks=1,
        divergence=Divergence(index=3, detail="boom", context="ring"),
    )
    assert not bad.ok
    text = bad.render()
    assert "[FAIL]" in text and "#3" in text and "boom" in text and "ring" in text


# -- LRU oracle --------------------------------------------------------------


def test_oracle_lru_semantics():
    cache = OracleLRUCache(n_sets=1, assoc=2)
    assert not cache.access(1)          # cold miss
    assert not cache.access(2)          # cold miss
    assert cache.access(1)              # hit refreshes 1 -> MRU
    assert not cache.access(3)          # evicts 2 (LRU)
    assert cache.access(1)              # 1 survived thanks to the refresh
    assert not cache.access(2)          # 2 was the victim
    assert cache.accesses == 6
    assert cache.misses == 4
    assert cache.evictions == 2


def test_oracle_lru_validates():
    with pytest.raises(ConfigError):
        OracleLRUCache(n_sets=0, assoc=2)


def test_reference_miss_flags():
    flags = reference_miss_flags([1, 2, 1, 3, 1], n_sets=1, assoc=2)
    assert flags == [True, True, False, True, False]


def test_diff_lru_agrees_on_random_blocks():
    rng = np.random.default_rng(11)
    blocks = rng.integers(0, 64, size=600, dtype=np.uint64)
    config = CacheConfig(size=1024, assoc=2, block=64)  # 8 sets
    report = diff_lru(blocks, config)
    assert report.ok, report.render()
    assert report.n_refs == 600


# -- stack-distance oracle ---------------------------------------------------


def test_oracle_stack_histogram_literal_example():
    # A B A A C: distances -1 -1 1 0 -1.
    assert oracle_stack_histogram([7, 9, 7, 7, 3]) == {-1: 3, 1: 1, 0: 1}


def test_diff_stackdist_agrees_on_random_blocks():
    rng = np.random.default_rng(5)
    blocks = rng.integers(0, 48, size=500, dtype=np.uint64).tolist()
    report = diff_stackdist(blocks)
    assert report.ok, report.render()
    assert report.checks == 2  # fastpath and scalar both diffed


# -- miss-curve sweep --------------------------------------------------------


@pytest.mark.parametrize("kind", ["data", "instr"])
@pytest.mark.parametrize("warmup", [0.0, 0.3])
def test_diff_miss_curve_agrees(kind, warmup):
    rng = np.random.default_rng(23)
    trace = random_trace(rng, 1_500)
    report = diff_miss_curve(
        trace, sizes=[2048, 4096], kind=kind, assoc=4,
        warmup_fraction=warmup,
    )
    assert report.ok, report.render()
    assert report.checks == 2


# -- coherent-machine oracle -------------------------------------------------


def test_oracle_machine_rejects_unknown_protocol():
    with pytest.raises(ConfigError):
        OracleCoherentMachine(SMALL_MACHINE, protocol="moesi")


def test_oracle_machine_sharing_scenario():
    oracle = OracleCoherentMachine(SMALL_MACHINE, include_l1=False)
    x = encode_ref(0x1000, STORE)
    assert oracle.access(0, x) == "mem"       # write miss: BusRdX
    assert oracle.access(1, encode_ref(0x1000, LOAD)) == "c2c"  # dirty supply
    assert oracle.access(0, x) == "upgrade"   # O -> M invalidates cpu1
    assert oracle.bus_stats["c2c_transfers"] == 1
    assert oracle.bus_stats["invalidations"] == 1
    assert oracle.c2c_by_line == {0x1000 >> 6: 1}


def test_oracle_machine_mesi_silent_upgrade():
    oracle = OracleCoherentMachine(SMALL_MACHINE, protocol="mesi", include_l1=False)
    assert oracle.access(0, encode_ref(0x40, LOAD)) == "mem"  # sole copy -> E
    assert oracle.access(0, encode_ref(0x40, STORE)) == "hit"
    assert oracle.bus_stats["silent_upgrades"] == 1
    assert oracle.bus_stats["upgrades"] == 0


@pytest.mark.parametrize("protocol", ["mosi", "msi", "mesi"])
def test_diff_hierarchy_agrees_per_protocol(protocol):
    rng = np.random.default_rng(77)
    traces = [random_trace(rng, 700) for _ in range(2)]
    report = diff_hierarchy_replay(
        traces, machine=SMALL_MACHINE, protocol=protocol, quantum=16,
        check_every=256,
    )
    assert report.ok, report.render()
    assert report.checks >= 2  # periodic vector checks plus the final one


def test_diff_hierarchy_with_warmup_and_shared_l2():
    rng = np.random.default_rng(31)
    machine = SMALL_MACHINE.with_shared_l2(2)
    traces = [random_trace(rng, 600) for _ in range(2)]
    report = diff_hierarchy_replay(
        traces, machine=machine, quantum=8, warmup_fraction=0.4,
        check_every=128,
    )
    assert report.ok, report.render()


def test_diff_hierarchy_rejects_trace_count_mismatch():
    with pytest.raises(ConfigError, match="expected 2 traces"):
        diff_hierarchy_replay([[encode_ref(0, LOAD)]], machine=SMALL_MACHINE)
