"""StreamBuilder and trace-bundle mechanics."""

import numpy as np
import pytest

from repro.jvm.heap import GenerationalHeap
from repro.jvm.objects import ObjectTree
from repro.memsys.block import IFETCH, LOAD, STORE, decode_ref, encode_ref
from repro.workloads.base import (
    StreamBuilder,
    TraceBundle,
    code_sweep_refs,
    os_background_trace,
    region_sweep_refs,
)
from repro.workloads.codepath import CodeLayout, jvm_runtime_regions


def make_builder() -> StreamBuilder:
    return StreamBuilder(np.random.default_rng(11), stack_base=0xF000_0000)


def test_loads_and_stores():
    b = make_builder()
    b.load(0x100)
    b.store(0x200)
    b.rmw(0x300)
    kinds = [decode_ref(r)[1] for r in b.refs]
    assert kinds == [LOAD, STORE, LOAD, STORE]


def test_scan():
    b = make_builder()
    b.scan(0x1000, 256, stride=64, write=True)
    addrs = [decode_ref(r)[0] for r in b.refs]
    assert addrs == [0x1000, 0x1040, 0x1080, 0x10C0]
    assert all(decode_ref(r)[1] == STORE for r in b.refs)


def test_code_burst_emits_fetches_and_locals():
    b = make_builder()
    layout = CodeLayout(jvm_runtime_regions())
    b.code_burst(layout)
    kinds = [decode_ref(r)[1] for r in b.refs]
    assert IFETCH in kinds
    assert LOAD in kinds  # locals traffic accompanies the burst
    assert b.instructions > 0
    # Locals land in the active stack window.
    data_addrs = [decode_ref(r)[0] for r in b.refs if decode_ref(r)[1] != IFETCH]
    assert all(0xF000_0000 <= a < 0xF000_0000 + 4096 for a in data_addrs)
    # The stream stays a flat list of Python ints, whatever built it.
    assert all(type(r) is int for r in b.refs)


def test_code_burst_rejects_negative_stack_addresses():
    b = StreamBuilder(np.random.default_rng(11), stack_base=-0x1000)
    with pytest.raises(ValueError, match="negative address"):
        b.code_burst(CodeLayout(jvm_runtime_regions()))


def test_tree_descent_reads_path():
    b = make_builder()
    tree = ObjectTree(base=0x6000_0000, fanout=4, depth=3, node_size=64)
    leaf = b.tree_descent(tree, write_leaf=True)
    assert 0x6000_0000 <= leaf < 0x6000_0000 + tree.total_bytes
    kinds = [decode_ref(r)[1] for r in b.refs]
    assert kinds.count(STORE) == 1  # the leaf update
    assert kinds.count(LOAD) == 2 * (tree.depth - 1) + 2


def test_allocate_emits_initializing_stores():
    b = make_builder()
    heap = GenerationalHeap()
    cursor = heap.cursor(0.1)
    addr = b.allocate(cursor, 256, stride=64)
    addrs = [decode_ref(r)[0] for r in b.refs]
    assert addrs == [addr, addr + 64, addr + 128, addr + 192]


def test_object_access_single_line():
    b = make_builder()
    b.object_access(0x7000, n_fields=3, write_fields=1)
    addrs = [decode_ref(r)[0] for r in b.refs]
    assert all(0x7000 < a < 0x7000 + 64 for a in addrs)


def test_sweeps():
    layout = CodeLayout(jvm_runtime_regions())
    code = code_sweep_refs(layout)
    expected = sum((s.code_bytes + 31) // 32 for s in layout.segments)
    assert len(code) == expected
    data = region_sweep_refs(0x9000, 512)
    assert data == [encode_ref(0x9000 + 64 * i, LOAD) for i in range(8)]
    assert all(type(r) is int for r in code + data)
    assert region_sweep_refs(0x9000, 0) == []
    with pytest.raises(ValueError, match="negative address"):
        region_sweep_refs(-0x40, 512)


def test_os_background_trace():
    rng = np.random.default_rng(5)
    shared = [0x800_0000, 0x800_0040]
    trace = os_background_trace(rng, 500, shared)
    assert len(trace) == 500
    touched = {decode_ref(r)[0] for r in trace}
    assert any(a in touched for a in shared)


def test_trace_bundle_aggregates():
    bundle = TraceBundle(
        workload="x", per_cpu=[[1, 2], [3]], instructions=[10, 20]
    )
    assert bundle.n_procs == 2
    assert bundle.total_refs == 3
    assert bundle.total_instructions == 30
    assert bundle.merged().tolist() == [1, 2, 3]
