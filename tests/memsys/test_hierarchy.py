"""Multi-processor hierarchy: L1 filtering, write-through, shoot-downs."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.memsys.block import IFETCH, LOAD, STORE, encode_ref
from repro.memsys.config import MachineConfig, cmp_machine, e6000_machine
from repro.memsys.hierarchy import MemoryHierarchy


def test_l1_filters_repeated_loads():
    h = MemoryHierarchy(e6000_machine(1))
    ref = encode_ref(0x1000, LOAD)
    assert h.access(0, ref) == "mem"
    assert h.access(0, ref) == "l1"
    stats = h.proc_stats[0]
    assert stats.l1d_misses == 1
    assert stats.l1d_accesses == 2


def test_ifetch_counts_instructions():
    h = MemoryHierarchy(e6000_machine(1))
    h.access(0, encode_ref(0x100000, IFETCH))
    assert h.proc_stats[0].instructions == 8
    assert h.proc_stats[0].l1i_accesses == 1


def test_stores_are_write_through():
    """Every store reaches the L2/bus even when the L1 holds the line."""
    h = MemoryHierarchy(e6000_machine(1))
    ref = encode_ref(0x2000, STORE)
    assert h.access(0, ref) == "mem"
    assert h.access(0, ref) == "hit"  # L2 hit, not absorbed by the L1
    assert h.proc_stats[0].stores == 2


def test_sharing_generates_c2c():
    h = MemoryHierarchy(e6000_machine(2))
    h.access(0, encode_ref(0x3000, STORE))
    assert h.access(1, encode_ref(0x3000, LOAD)) == "c2c"
    assert h.total_c2c_fills == 1
    assert h.c2c_ratio() == pytest.approx(0.5)


def test_l1_shoot_down_on_remote_write():
    """A remote write must invalidate the local L1 copy too."""
    h = MemoryHierarchy(e6000_machine(2))
    h.access(0, encode_ref(0x4000, LOAD))  # cpu0 L1 + L2 hold it
    h.access(1, encode_ref(0x4000, STORE))  # invalidate cpu0 everywhere
    # cpu0's next load must go back to the bus (c2c), not hit stale L1.
    assert h.access(0, encode_ref(0x4000, LOAD)) == "c2c"


def test_shared_l2_turns_sharing_into_hits():
    """The CMP effect: processors behind one L2 do not miss on sharing."""
    shared = MemoryHierarchy(cmp_machine(n_procs=2, procs_per_l2=2))
    shared.access(0, encode_ref(0x5000, STORE))
    assert shared.access(1, encode_ref(0x5000, LOAD)) == "hit"
    assert shared.total_c2c_fills == 0


def test_private_vs_shared_l2_cache_count():
    assert MemoryHierarchy(e6000_machine(4)).bus.caches.__len__() == 4
    assert MemoryHierarchy(cmp_machine(4, 4)).bus.caches.__len__() == 1
    assert MemoryHierarchy(cmp_machine(4, 2)).bus.caches.__len__() == 2


def test_run_trace_round_robin_determinism():
    t0 = [encode_ref(64 * i, LOAD) for i in range(50)]
    t1 = [encode_ref(64 * i + 0x8000, STORE) for i in range(50)]
    a = MemoryHierarchy(e6000_machine(2))
    a.run_trace([list(t0), list(t1)])
    b = MemoryHierarchy(e6000_machine(2))
    b.run_trace([list(t0), list(t1)])
    assert [s.l2_misses for s in a.proc_stats] == [s.l2_misses for s in b.proc_stats]


def test_run_trace_wrong_width_rejected():
    h = MemoryHierarchy(e6000_machine(2))
    with pytest.raises(ConfigError):
        h.run_trace([[]])


@pytest.mark.parametrize(
    "traces, kwargs, error",
    [
        ([[], []], {"quantum": 0}, "quantum must be positive"),
        ([[], []], {"warmup_fraction": 1.0}, "warmup_fraction"),
        ([[], []], {"warmup_fraction": -0.1}, "warmup_fraction"),
        ([np.zeros((2, 3), dtype=np.uint64), []], {}, "one-dimensional"),
    ],
    ids=["quantum", "warmup-one", "warmup-negative", "two-dimensional"],
)
def test_run_trace_refuses_bad_arguments(traces, kwargs, error):
    h = MemoryHierarchy(e6000_machine(2))
    with pytest.raises(ConfigError, match=error):
        h.run_trace(traces, **kwargs)
    assert h.total_instructions == 0


def test_run_trace_warmup_discards_counters():
    trace = [encode_ref(64 * i, LOAD) for i in range(100)] * 2
    h = MemoryHierarchy(e6000_machine(1))
    h.run_trace([trace], warmup_fraction=0.5)
    # The second half re-touches the same blocks: all warm at L2.
    assert h.total_l2_misses == 0
    assert h.proc_stats[0].loads == len(trace) // 2


def test_data_mpki_excludes_instruction_fills():
    h = MemoryHierarchy(e6000_machine(1))
    for i in range(32):
        h.access(0, encode_ref(0x100000 + 32 * i, IFETCH))
    assert h.data_mpki() == 0.0
    assert sum(s.l2_instr_misses for s in h.proc_stats) > 0


def test_uneven_trace_lengths_complete():
    h = MemoryHierarchy(e6000_machine(2))
    t0 = [encode_ref(64 * i, LOAD) for i in range(10)]
    t1 = [encode_ref(64 * i, LOAD) for i in range(200)]
    h.run_trace([t0, t1], quantum=16)
    assert h.proc_stats[0].loads == 10
    assert h.proc_stats[1].loads == 200


def test_load_side_counters_consistent():
    h = MemoryHierarchy(e6000_machine(2))
    h.access(0, encode_ref(0x9000, STORE))
    h.access(1, encode_ref(0x9000, LOAD))
    s1 = h.proc_stats[1]
    assert s1.c2c_load_fills == 1
    assert s1.l2_load_misses == 1
    assert s1.mem_load_fills == 0
