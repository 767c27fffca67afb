"""Trace-plane lifecycle: publish/attach parity and leak-proof cleanup.

The trace plane's contract has two halves, and this suite pins both:

1. **Parity** — a bundle replayed through a shared-memory (or spill)
   attachment is bit-identical to one regenerated from its spec, so
   plane-on, plane-off and serial campaigns produce identical results;
2. **No leaks, ever** — after a clean campaign, a SIGINT-drained
   campaign, a chaos campaign (workers crashing *while attached*,
   hanging past the watchdog, being respawned), and even a parent
   killed dead without cleanup (via :func:`sweep_stale`), zero
   ``/dev/shm`` segments, spill files, or ledgers remain.

Every test that creates segments asserts the ``/dev/shm`` delta is
empty on the way out; the ``_no_leaks`` helper is the single source of
truth for what "leaked" means.
"""

from __future__ import annotations

import dataclasses
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro.figures.common as common
from repro.cli import main
from repro.core.config import SimConfig
from repro.errors import TracePlaneError
from repro.figures.common import FigureResult
from repro.harness import FaultPolicy, Task, run_tasks
from repro.harness import traceplane
from repro.harness.chaos import crash_while_attached, hang_task
from repro.harness.tasks import build_miss_curve_sweep_tasks, miss_curve_shard
from repro.harness.traceplane import (
    SEGMENT_PREFIX,
    TracePlane,
    TraceSpec,
    attach,
    detach_all,
    resolve,
    sweep_stale,
    use_refs,
)
from repro.memsys.multisim import simulate_miss_curve

TINY = SimConfig(seed=1234, refs_per_proc=4_000, warmup_fraction=0.5)

SIZES = [16 * 1024, 64 * 1024, 256 * 1024]


def _spec(n_procs: int = 1, seed: int = 1234) -> TraceSpec:
    sim = dataclasses.replace(TINY, seed=seed)
    return TraceSpec(workload="specjbb", scale=2, n_procs=n_procs, sim=sim)


def _shm_segments() -> set[str]:
    shm = Path("/dev/shm")
    if not shm.is_dir():  # pragma: no cover - non-Linux
        return set()
    return {p.name for p in shm.iterdir() if p.name.startswith(SEGMENT_PREFIX)}


@pytest.fixture(autouse=True)
def _no_leaks():
    """Every test in this file must leave /dev/shm and the cache clean."""
    detach_all()
    before = _shm_segments()
    yield
    detach_all()
    leaked = _shm_segments() - before
    assert not leaked, f"leaked shared-memory segments: {sorted(leaked)}"


def _plane_files(root: Path) -> list[str]:
    return sorted(
        p.name for p in root.glob("*") if p.suffix in (".trace", ".ledger")
    )


# -- publish / attach parity -------------------------------------------------


def test_publish_attach_roundtrip_is_bit_identical(tmp_path):
    spec = _spec(n_procs=2)
    reference = spec.generate()
    with TracePlane(root=tmp_path) as plane:
        ref = plane.publish(spec)
        assert ref.backend == "shm"
        assert ref.lengths == tuple(t.size for t in reference.per_cpu)
        got = attach(ref)
        assert got.workload == reference.workload
        assert got.instructions == reference.instructions
        for mine, theirs in zip(got.per_cpu, reference.per_cpu):
            assert mine.dtype == np.uint64
            assert np.array_equal(mine, theirs)
        detach_all()
    assert _plane_files(tmp_path) == []


def test_publish_is_idempotent_per_spec(tmp_path):
    spec = _spec()
    with TracePlane(root=tmp_path) as plane:
        first = plane.publish(spec)
        second = plane.publish(spec)
        assert first is second or first == second
        assert len(plane.refs) == 1


def test_spill_backend_roundtrip(tmp_path):
    spec = _spec(n_procs=2)
    reference = spec.generate()
    with TracePlane(root=tmp_path, spill_bytes=1) as plane:
        ref = plane.publish(spec)
        assert ref.backend == "spill"
        assert Path(ref.location).exists()
        got = attach(ref)
        assert np.array_equal(got.merged(), reference.merged())
        detach_all()
    # Spill file and ledger both retired at close.
    assert _plane_files(tmp_path) == []


def test_resolve_uses_installed_refs_and_misses_without(tmp_path):
    spec = _spec()
    assert resolve(spec) is None
    with TracePlane(root=tmp_path) as plane:
        refs = plane.refs_for([spec])
        with use_refs(refs):
            bundle = resolve(spec)
            assert bundle is not None
            assert np.array_equal(bundle.merged(), spec.generate().merged())
        assert resolve(spec) is None  # refs uninstalled on exit
        detach_all()


def test_sweep_parity_plane_on_off_serial(tmp_path):
    """The acceptance bar: three execution modes, one answer."""
    spec = _spec()
    direct = simulate_miss_curve(
        spec.generate().merged(), SIZES, kind="data", assoc=4, block=64,
        warmup_fraction=0.5,
    )
    expect = [(p.size, p.accesses, p.misses, p.mpki) for p in direct]

    def sweep(jobs: int, plane: TracePlane | None):
        tasks = build_miss_curve_sweep_tasks(spec, SIZES, "data", plane=plane)
        outcomes = run_tasks(tasks, jobs=jobs, plane=plane)
        assert all(o.ok for o in outcomes)
        return [point for o in outcomes for point in o.value]

    with TracePlane(root=tmp_path) as plane:
        plane_on = sweep(jobs=2, plane=plane)
    plane_off = sweep(jobs=2, plane=None)
    serial = sweep(jobs=1, plane=None)
    assert plane_on == plane_off == serial == expect


def test_shard_task_regenerates_without_refs():
    spec = _spec()
    points = miss_curve_shard(spec, SIZES[:1], "data", plane_refs=None)
    direct = simulate_miss_curve(
        spec.generate().merged(), SIZES[:1], kind="data", assoc=4, block=64,
        warmup_fraction=0.5,
    )
    assert points == [(p.size, p.accesses, p.misses, p.mpki) for p in direct]


# -- seeded defects: every bad ref fails loudly and typed --------------------


def test_stale_ref_after_close_raises_typed_error(tmp_path):
    spec = _spec()
    plane = TracePlane(root=tmp_path)
    ref = plane.publish(spec)
    plane.close()
    with pytest.raises(TracePlaneError, match="stale TraceRef"):
        attach(ref)


def test_wrong_generation_ref_raises_typed_error(tmp_path):
    spec = _spec()
    with TracePlane(root=tmp_path) as plane:
        ref = plane.publish(spec)
        forged = dataclasses.replace(ref, generation="f" * 32)
        with pytest.raises(TracePlaneError, match="generation"):
            attach(forged)
        detach_all()


def test_truncated_spill_file_raises_typed_error(tmp_path):
    spec = _spec()
    with TracePlane(root=tmp_path, spill_bytes=1) as plane:
        ref = plane.publish(spec)
        path = Path(ref.location)
        path.write_bytes(path.read_bytes()[: ref.nbytes // 2])
        with pytest.raises(TracePlaneError, match="truncated"):
            attach(ref)


def test_garbage_spill_header_raises_typed_error(tmp_path):
    spec = _spec()
    with TracePlane(root=tmp_path, spill_bytes=1) as plane:
        ref = plane.publish(spec)
        Path(ref.location).write_bytes(b"\xff" * 256)
        with pytest.raises(TracePlaneError, match="magic"):
            attach(ref)


def test_unknown_backend_rejected(tmp_path):
    spec = _spec()
    with TracePlane(root=tmp_path) as plane:
        ref = dataclasses.replace(plane.publish(spec), backend="carrier-pigeon")
        with pytest.raises(TracePlaneError, match="backend"):
            attach(ref)


def test_publish_on_closed_plane_raises(tmp_path):
    plane = TracePlane(root=tmp_path)
    plane.close()
    with pytest.raises(TracePlaneError, match="closed"):
        plane.publish(_spec())


# -- refcounted early unlink -------------------------------------------------


def test_release_to_zero_unlinks_before_campaign_end(tmp_path):
    keep, drop = _spec(seed=1), _spec(seed=2)
    with TracePlane(root=tmp_path) as plane:
        refs = plane.refs_for([keep, drop])
        keep_key, drop_key = keep.key(), drop.key()
        plane.retain((keep_key,))
        plane.retain((keep_key,))
        plane.retain((drop_key,))

        plane.release((drop_key,))
        assert refs[drop_key].location not in _shm_segments()
        assert refs[keep_key].location in _shm_segments()

        plane.release((keep_key,))
        assert refs[keep_key].location in _shm_segments()  # one holder left
        plane.release((keep_key,))
        assert refs[keep_key].location not in _shm_segments()


def test_runner_releases_plane_keys_as_tasks_finish(tmp_path):
    spec = _spec()
    with TracePlane(root=tmp_path) as plane:
        tasks = build_miss_curve_sweep_tasks(spec, SIZES, "data", plane=plane)
        assert all(t.plane_keys == (spec.key(),) for t in tasks)
        outcomes = run_tasks(tasks, jobs=2, plane=plane)
        assert all(o.ok for o in outcomes)
        # Every consumer finished: the runner's release() calls already
        # unlinked the segment, before plane.close() ran.
        assert plane.refs == {}


# -- lifecycle: clean, interrupted and chaotic campaigns all leave zero ------


def test_clean_parallel_campaign_leaves_nothing(tmp_path):
    spec = _spec(n_procs=2)
    plane = TracePlane(root=tmp_path)
    try:
        tasks = build_miss_curve_sweep_tasks(spec, SIZES, "data", plane=plane)
        outcomes = run_tasks(tasks, jobs=2, plane=plane)
        assert all(o.ok for o in outcomes)
    finally:
        plane.close()
    assert _plane_files(tmp_path) == []


def test_worker_crash_while_attached_retries_and_leaks_nothing(tmp_path):
    """The worst case: SIGKILL-style death while holding a mapping."""
    spec = _spec()
    scratch = tmp_path / "chaos"
    plane = TracePlane(root=tmp_path / "plane")
    try:
        ref = plane.publish(spec)
        tasks = [
            Task(
                key="crash",
                fn=crash_while_attached,
                args=(str(scratch), "c1", 41),
                kwargs={"ref": ref},
                plane_keys=(spec.key(),),
            ),
            Task(key="ok", fn=miss_curve_shard, args=(spec, SIZES[:1], "data"),
                 kwargs={"plane_refs": {spec.key(): ref}},
                 plane_keys=(spec.key(),)),
        ]
        outcomes = run_tasks(
            tasks, jobs=2, plane=plane,
            faults=FaultPolicy(max_attempts=2, backoff_s=0.0),
        )
        by_key = {o.key: o for o in outcomes}
        # The respawned worker re-attached and finished the task.
        assert by_key["crash"].ok and by_key["crash"].attempts == 2
        value, checksum = by_key["crash"].value
        assert value == 41
        bundle = spec.generate()
        assert checksum == int(
            sum(int(t[:16].sum()) for t in bundle.per_cpu if t.size)
        )
        assert by_key["ok"].ok
    finally:
        plane.close()
    assert _plane_files(tmp_path / "plane") == []


def test_hung_worker_killed_while_attached_leaks_nothing(tmp_path):
    spec = _spec()
    plane = TracePlane(root=tmp_path / "plane")
    try:
        ref = plane.publish(spec)

        tasks = [
            Task(key="hang", fn=hang_task,
                 args=(str(tmp_path / "chaos"), "h1", 0, 30.0),
                 plane_keys=(spec.key(),)),
            Task(key="ok", fn=miss_curve_shard, args=(spec, SIZES[:1], "data"),
                 kwargs={"plane_refs": {spec.key(): ref}},
                 plane_keys=(spec.key(),)),
        ]
        outcomes = run_tasks(
            tasks, jobs=2, plane=plane, faults=FaultPolicy(timeout_s=0.3)
        )
        by_key = {o.key: o for o in outcomes}
        assert not by_key["hang"].ok  # watchdog killed it
        assert by_key["ok"].ok
    finally:
        plane.close()
    assert _plane_files(tmp_path / "plane") == []


def test_sigint_drained_figures_campaign_leaks_nothing(monkeypatch, tmp_path):
    """A drained interrupt still unlinks every published segment."""
    monkeypatch.setenv("JMMW_CACHE_DIR", str(tmp_path))
    plane_root = tmp_path / "traceplane"

    published = []

    def interrupting(module_name, sim, plane_refs=None):
        published.append(len(plane_refs or ()))
        if module_name.startswith("fig12"):
            os.kill(os.getpid(), signal.SIGINT)
        return FigureResult(
            figure_id=module_name.split("_", 1)[0],
            title="stub", columns=["k"], rows=[(1,)], paper_claim="stub",
        )

    monkeypatch.setattr(common, "run_figure", interrupting)
    monkeypatch.setattr(
        common, "figure_checks", lambda module_name, result: []
    )
    # fig12 and fig13 share four traces, so segments exist when the
    # interrupt lands.
    rc = main(["figures", "fig12", "fig13", "--quick", "--no-cache"])
    assert rc == 130
    assert published and published[0] == 4
    assert _plane_files(plane_root) == []


def test_fork_inherited_plane_never_closes_parents_segments(tmp_path):
    spec = _spec()
    with TracePlane(root=tmp_path) as plane:
        ref = plane.publish(spec)
        # Simulate the close() call a forked worker's atexit would make.
        original = plane._owner_pid
        plane._owner_pid = original + 1
        plane.close()
        assert ref.location in _shm_segments()  # untouched
        plane._owner_pid = original


# -- crash-safe sweep: a parent killed dead cannot leak forever --------------

_ORPHAN_SCRIPT = """
import os, sys
sys.path.insert(0, {src!r})
from multiprocessing import resource_tracker
# Simulate a SIGKILL of the *whole process tree*: the resource tracker
# dies too, so its unlink-on-death backstop never fires and only the
# ledger sweep can reclaim the segment.
_orig = resource_tracker.register
resource_tracker.register = (
    lambda path, rtype: None if rtype == "shared_memory" else _orig(path, rtype)
)
from repro.core.config import SimConfig
from repro.harness.traceplane import TracePlane, TraceSpec
sim = SimConfig(seed=1234, refs_per_proc=4000, warmup_fraction=0.5)
plane = TracePlane(root={root!r})
ref = plane.publish(TraceSpec(workload="specjbb", scale=2, n_procs=1, sim=sim))
print(ref.location, flush=True)
os._exit(9)  # SIGKILL-style: no atexit, no close
"""


def _orphan_a_segment(root: Path) -> str:
    src = str(Path(__file__).resolve().parents[2] / "src")
    script = _ORPHAN_SCRIPT.format(src=src, root=str(root))
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        timeout=120,
    )
    location = out.stdout.strip()
    assert location, out.stderr
    return location


def test_sweep_stale_reaps_segments_of_dead_processes(tmp_path):
    location = _orphan_a_segment(tmp_path)
    assert location in _shm_segments()  # genuinely leaked by the kill
    assert len(list(tmp_path.glob("*.ledger"))) == 1
    reaped = sweep_stale(tmp_path)
    assert reaped == 1
    assert location not in _shm_segments()
    assert _plane_files(tmp_path) == []


def test_new_plane_sweeps_predecessors_leak_on_construction(tmp_path):
    location = _orphan_a_segment(tmp_path)
    assert location in _shm_segments()
    with TracePlane(root=tmp_path):
        assert location not in _shm_segments()
    assert _plane_files(tmp_path) == []


def test_sweep_leaves_live_planes_alone(tmp_path):
    spec = _spec()
    with TracePlane(root=tmp_path) as plane:
        ref = plane.publish(spec)
        assert sweep_stale(tmp_path) == 0  # our pid is alive
        assert ref.location in _shm_segments()


def test_normal_interpreter_exit_runs_atexit_backstop(tmp_path):
    """A plane abandoned without close() is cleaned by atexit."""
    src = str(Path(__file__).resolve().parents[2] / "src")
    script = _ORPHAN_SCRIPT.format(src=src, root=str(tmp_path)).replace(
        "os._exit(9)  # SIGKILL-style: no atexit, no close",
        "raise SystemExit(0)  # normal exit: atexit must clean up",
    )
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        timeout=120,
    )
    location = out.stdout.strip()
    assert location, out.stderr
    assert location not in _shm_segments()
    assert _plane_files(tmp_path) == []


# -- obs counters ------------------------------------------------------------


def test_plane_obs_counters(tmp_path, obs_enabled):
    spec = _spec()
    with TracePlane(root=tmp_path) as plane:
        ref = plane.publish(spec)
        attach(ref)
        attach(ref)  # cached mapping; the counter still ticks
        detach_all()
    counters = obs_enabled.COUNTERS.snapshot()
    assert counters["harness/trace_plane/segments"] == 1
    assert counters["harness/trace_plane/segments_live"] == 0
    assert counters["harness/trace_plane/bytes_shared"] == ref.nbytes
    assert counters["harness/trace_plane/attaches"] == 2
    assert counters["harness/trace_plane/pickle_bytes_avoided"] == 2 * ref.nbytes


# -- publish never materializes the merged payload ---------------------------


def test_publish_never_concatenates_the_bundle(tmp_path, monkeypatch):
    """Publishing streams per-CPU arrays into the segment one by one.

    The spill cliff this pins down: publish used to build one merged
    payload array before deciding shm vs spill, doubling peak memory
    at exactly the trace sizes the spill path exists for.  Outlawing
    payload-sized ``np.concatenate`` calls for the whole publish
    proves the payload is written per-array, on both backends, with
    round-trips still bit-identical.  (Tiny concatenations — RNG seed
    derivation during generation — stay legal; the cliff is about the
    payload.)
    """
    spec = _spec(n_procs=2)
    reference = spec.generate()
    payload_bytes = sum(t.nbytes for t in reference.per_cpu)
    original = np.concatenate

    def guarded(arrays, *args, **kwargs):
        total = sum(np.asarray(a).nbytes for a in arrays)
        assert total < payload_bytes, (
            f"publish concatenated {total} bytes — the merged-payload "
            "cliff is back"
        )
        return original(arrays, *args, **kwargs)

    monkeypatch.setattr(traceplane.np, "concatenate", guarded)
    for backend, kwargs in (("shm", {}), ("spill", {"spill_bytes": 1})):
        with TracePlane(root=tmp_path / backend, **kwargs) as plane:
            ref = plane.publish(spec)
            assert ref.backend == backend
            got = attach(ref)
            for mine, theirs in zip(got.per_cpu, reference.per_cpu):
                assert np.array_equal(mine, theirs)
            detach_all()
