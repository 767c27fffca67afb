"""Property tests: random TraceBundles survive every persistence path.

Hypothesis generates arbitrary bundles — empty streams, zero
processors, extreme ``uint64`` values, odd lengths — and round-trips
them through (1) ``save_trace``/``load_trace`` and (2) a trace-plane
publish/attach of a memory-mapped file, asserting array equality,
dtype, and per-CPU split stability on both paths.  Seeded
defects (truncation, garbage) then prove the load path fails with the
typed :class:`~repro.errors.TraceFileError`, never a raw
numpy/zipfile exception.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AnalysisError, TraceFileError
from repro.harness.traceplane import TracePlane, detach_all
from repro.memsys.tracefile import save_trace, load_trace
from repro.workloads.base import TraceBundle

UINT64 = st.integers(min_value=0, max_value=2**64 - 1)

STREAMS = st.lists(
    st.lists(UINT64, min_size=0, max_size=120), min_size=0, max_size=4
)

META = st.dictionaries(
    st.sampled_from(["scale", "label", "note"]),
    st.one_of(st.integers(-1000, 1000), st.text(max_size=12)),
    max_size=3,
)


@st.composite
def bundles(draw) -> TraceBundle:
    per_cpu = draw(STREAMS)
    return TraceBundle(
        workload=draw(st.sampled_from(["specjbb", "ecperf", "synthetic"])),
        per_cpu=[np.asarray(t, dtype=np.uint64) for t in per_cpu],
        instructions=[draw(st.integers(0, 10**9)) for _ in per_cpu],
        meta=draw(META),
    )


def _assert_equal_bundles(got: TraceBundle, want: TraceBundle) -> None:
    assert got.workload == want.workload
    assert got.n_procs == want.n_procs
    assert list(got.instructions) == list(want.instructions)
    for mine, theirs in zip(got.per_cpu, want.per_cpu):
        assert mine.dtype == np.uint64
        assert mine.ndim == 1
        assert np.array_equal(mine, theirs)


@settings(max_examples=60, deadline=None)
@given(bundle=bundles())
def test_save_load_roundtrip(bundle):
    with tempfile.TemporaryDirectory() as tmp:
        path = save_trace(bundle, Path(tmp) / "t")
        got = load_trace(path)
    _assert_equal_bundles(got, bundle)
    assert dict(got.meta) == dict(bundle.meta)


@settings(max_examples=40, deadline=None)
@given(bundle=bundles())
def test_shm_publish_attach_roundtrip(bundle):
    """Arbitrary bundles survive the trace plane's mapped files unchanged."""
    from repro.harness.traceplane import TraceSpec, attach
    from repro.core.config import SimConfig

    spec = TraceSpec(
        workload=bundle.workload, scale=None, n_procs=bundle.n_procs,
        sim=SimConfig(seed=1, refs_per_proc=1, warmup_fraction=0.5),
    )
    with tempfile.TemporaryDirectory() as tmp:
        with TracePlane(root=tmp) as plane:
            ref = plane.publish(spec, bundle=bundle)
            assert ref.lengths == tuple(t.size for t in bundle.per_cpu)
            got = attach(ref)
            _assert_equal_bundles(got, bundle)
            detach_all()


# -- seeded defects ----------------------------------------------------------


def _sample_bundle() -> TraceBundle:
    return TraceBundle(
        workload="specjbb",
        per_cpu=[np.arange(64, dtype=np.uint64), np.arange(32, dtype=np.uint64)],
        instructions=[100, 50],
        meta={"scale": 2},
    )


def test_missing_file_raises_typed_error(tmp_path):
    with pytest.raises(TraceFileError, match="does not exist"):
        load_trace(tmp_path / "nope.npz")


def test_truncated_archive_raises_typed_error(tmp_path):
    path = save_trace(_sample_bundle(), tmp_path / "t")
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(TraceFileError):
        load_trace(path)


def test_garbage_file_raises_typed_error(tmp_path):
    path = tmp_path / "junk.npz"
    path.write_bytes(b"not an archive at all")
    with pytest.raises(TraceFileError):
        load_trace(path)


def test_foreign_npz_raises_typed_error(tmp_path):
    """A valid npz without our header is rejected, not misread."""
    path = tmp_path / "foreign.npz"
    np.savez_compressed(path, something=np.arange(4))
    with pytest.raises(TraceFileError, match="not a repro trace file"):
        load_trace(path)


def test_trace_file_error_is_an_analysis_error(tmp_path):
    """Existing except-AnalysisError handlers keep working."""
    assert issubclass(TraceFileError, AnalysisError)
    with pytest.raises(AnalysisError):
        load_trace(tmp_path / "absent.npz")
