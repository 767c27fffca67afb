"""Trace plane: generate once, replay many.

The paper's figures replay the *same* reference streams against many
memory-system configurations, in many tasks.  Without help, every
harness task regenerates its trace — or worse, the parent pickles
megabytes of ``uint64`` arrays through a pipe per task — so campaign
cost scales with ``tasks x trace size`` instead of ``trace size``.

The trace plane fixes the scaling:

- the parent materializes each :class:`~repro.workloads.base.TraceBundle`
  **once**, content-addressed by a :class:`TraceSpec` (workload name +
  scale + processor count + SimConfig, through
  :func:`~repro.harness.cache.content_key`); ``jmmw figures``
  publishes the specs that two or more of its to-run figures declare;
- the bundle's arrays are written, one per-CPU array at a time, to a
  *trace file* in the plane's own directory,
  ``<root>/<pid>-<generation>/``; the root defaults to
  ``<cache dir>/traceplane``;
- workers receive only a :class:`TraceRef` — a few hundred bytes —
  and :func:`attach` maps the file read-only and rebuilds the bundle
  as zero-copy array views, so every process (serial, forked or
  spawned) shares the same pages through the page cache.  A mapping
  lasts one task: :func:`use_refs` closes a task's mappings when the
  task ends.

Lifecycle and crash safety:

- every trace file starts with a 64-byte header (magic, plane
  *generation*, payload size); :func:`attach` validates all three and
  raises :class:`~repro.errors.TracePlaneError` on any mismatch — a
  stale ref from an earlier campaign or a truncated file fails loudly
  instead of replaying silently wrong data;
- the parent owns every file: a worker killed by the watchdog (SIGKILL
  skips all child cleanup) can never leak — its mappings die with it
  and the file is still the parent's to remove;
- per-spec refcounts (:meth:`TracePlane.retain` on dispatch,
  :meth:`TracePlane.release` when a task reaches its final outcome —
  see ``run_tasks(..., plane=...)``) remove a file as soon as the last
  task needing it completes, before campaign end;
- :meth:`TracePlane.close` removes the plane's directory with
  everything in it, a publish that failed part-way included; an
  ``atexit`` hook backstops normal interpreter exits, and
  :func:`sweep_stale` (run by every new plane, or manually) removes
  the directories of planes whose process died without closing.

Trace files are never fsynced: readers share the writer's page cache,
and no one reads a file after its writer dies, because the next sweep
deletes it.

Everything is deterministic: trace generation draws from stateless
:class:`~repro.rng.RngFactory` streams, so a plane-published bundle is
bit-identical to the one a worker would have regenerated: a task that
runs without a ref generates locally with byte-identical results.

Obs counters (``jmmw ... --obs``): ``harness/trace_plane/segments``
(published), ``segments_live`` (published minus removed),
``bytes_shared``, ``attaches`` and ``pickle_bytes_avoided`` (bytes
that did *not* travel through a task pipe because the worker attached
instead).
"""

from __future__ import annotations

import atexit
import contextlib
import json
import mmap
import os
import shutil
import struct
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Mapping

import numpy as np

from repro import obs
from repro.core.config import SimConfig
from repro.errors import TracePlaneError
from repro.memsys.tracefile import jsonable_meta

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.workloads.base import TraceBundle

#: First bytes of every trace file.
HEADER_MAGIC = b"jmmw-traceplane\x01"

#: Fixed header: magic (16) + generation (32 hex) + payload nbytes (8)
#: + padding to a 64-byte, 8-aligned data offset.
HEADER_BYTES = 64


@dataclass(frozen=True)
class TraceSpec:
    """Everything that determines one generated trace, content-addressed.

    ``workload``/``scale`` go through
    :func:`repro.figures.common.make_workload`; generation always uses
    ``RngFactory(seed=sim.seed)`` streams, which are stateless — so
    two processes generating the same spec produce bit-identical
    bundles, and publishing is a pure optimization.
    """

    workload: str
    scale: int | None
    n_procs: int
    sim: SimConfig

    @classmethod
    def official(cls, workload: str, n_procs: int, sim: SimConfig) -> "TraceSpec":
        """The trace an official run of ``workload`` uses at ``n_procs``:
        SPECjbb runs one warehouse per processor, and ECperf's injection
        rate tracks the processor count (its footprint barely moves)."""
        return cls(workload=workload, scale=max(1, n_procs), n_procs=n_procs, sim=sim)

    def key(self) -> str:
        from repro.harness.cache import content_key

        return content_key(
            kind="trace-spec",
            workload=self.workload,
            scale=self.scale,
            n_procs=self.n_procs,
            sim=self.sim,
        )

    def generate(self) -> "TraceBundle":
        """Materialize the trace (deterministic; no plane involved)."""
        from repro.figures.common import make_workload
        from repro.rng import RngFactory
        from repro.workloads.base import burst_mode

        workload = make_workload(self.workload, scale=self.scale)
        with obs.span(
            "workload/trace-gen",
            workload=type(workload).__name__,
            procs=self.n_procs,
        ) as span:
            bundle = workload.generate(
                self.n_procs, self.sim, RngFactory(seed=self.sim.seed)
            )
            span.annotate(bursts=burst_mode())
        return bundle


@dataclass(frozen=True)
class TraceRef:
    """A lightweight, picklable handle to one published trace.

    This — not the arrays — is what travels through the task pipe.
    ``location`` is the trace file's path; ``generation`` ties the ref
    to the plane that published it, so refs cannot outlive their
    campaign undetected.
    """

    spec_key: str
    generation: str
    location: str
    nbytes: int
    lengths: tuple[int, ...]
    instructions: tuple[int, ...]
    workload: str
    meta_json: str


# -- file layout -------------------------------------------------------------


def _pack_header(generation: str, nbytes: int) -> bytes:
    header = HEADER_MAGIC + generation.encode("ascii") + struct.pack("<Q", nbytes)
    return header.ljust(HEADER_BYTES, b"\0")


def _parse_header(buf: bytes, what: str) -> tuple[str, int]:
    if len(buf) < HEADER_BYTES:
        raise TracePlaneError(f"{what}: truncated header ({len(buf)} bytes)")
    if buf[:16] != HEADER_MAGIC:
        raise TracePlaneError(f"{what}: not a trace-plane file (bad magic)")
    generation = buf[16:48].decode("ascii", errors="replace")
    (nbytes,) = struct.unpack("<Q", buf[48:56])
    return generation, nbytes


# -- attach (worker side) ----------------------------------------------------


class _Attachment:
    """One process-local, read-only mapping of a published trace file."""

    def __init__(self, ref: TraceRef, mapping: mmap.mmap) -> None:
        self.ref = ref
        self.mapping = mapping
        self.base = np.frombuffer(
            mapping, dtype=np.uint64, count=ref.nbytes // 8, offset=HEADER_BYTES
        )

    def bundle(self) -> "TraceBundle":
        from repro.workloads.base import TraceBundle

        per_cpu = []
        start = 0
        for length in self.ref.lengths:
            per_cpu.append(self.base[start : start + length])
            start += length
        return TraceBundle(
            workload=self.ref.workload,
            per_cpu=per_cpu,
            instructions=list(self.ref.instructions),
            meta=json.loads(self.ref.meta_json),
        )

    def close(self) -> None:
        # Views that outlive the task keep the mapping alive (close
        # raises BufferError); it is unmapped when the last one dies.
        self.base = None
        with contextlib.suppress(BufferError):
            self.mapping.close()


#: Process-local attachment cache: a task that fetches one trace twice
#: maps it once, and :func:`use_refs` closes the task's mappings when
#: the task ends.  Keyed by (generation, spec_key) so a ref from a
#: different plane generation can never hit a stale entry.
_ATTACH_CACHE: dict[tuple[str, str], _Attachment] = {}


def _map(ref: TraceRef) -> _Attachment:
    path = ref.location
    try:
        fh = open(path, "rb")
    except FileNotFoundError:
        raise TracePlaneError(
            f"trace file {path} no longer exists "
            "(stale TraceRef: its campaign ended or its plane closed)"
        ) from None
    with fh:
        generation, nbytes = _parse_header(fh.read(HEADER_BYTES), path)
        if generation != ref.generation:
            raise TracePlaneError(
                f"trace file {path} belongs to plane generation "
                f"{generation[:8]}, ref was issued by {ref.generation[:8]} "
                "(stale TraceRef)"
            )
        size = os.fstat(fh.fileno()).st_size
        if nbytes != ref.nbytes or size < HEADER_BYTES + ref.nbytes:
            raise TracePlaneError(
                f"trace file {path}: {size} bytes on disk cannot hold the "
                f"{ref.nbytes}-byte payload the ref expects (truncated file)"
            )
        mapping = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
    return _Attachment(ref, mapping)


def attach(ref: TraceRef) -> "TraceBundle":
    """Map a published trace and rebuild its bundle, zero-copy.

    Validates the file's magic, generation and payload size against
    the ref and raises :class:`~repro.errors.TracePlaneError` on any
    mismatch.  A mapping is cached until the :func:`use_refs` block
    that installed ``ref`` exits (or :func:`detach_all`).
    """
    cache_key = (ref.generation, ref.spec_key)
    attachment = _ATTACH_CACHE.get(cache_key)
    if attachment is None:
        attachment = _ATTACH_CACHE[cache_key] = _map(ref)
    obs.incr("harness/trace_plane/attaches")
    obs.incr("harness/trace_plane/pickle_bytes_avoided", ref.nbytes)
    return attachment.bundle()


def detach_all() -> None:
    """Drop every cached mapping in this process (tests, plane close)."""
    for attachment in _ATTACH_CACHE.values():
        attachment.close()
    _ATTACH_CACHE.clear()


def _detach_generation(generation: str) -> None:
    for key in [k for k in _ATTACH_CACHE if k[0] == generation]:
        _ATTACH_CACHE.pop(key).close()


# -- ref installation (task side) -------------------------------------------

#: Refs installed for the currently-running task, keyed by spec key.
#: Figure code asks :func:`resolve` for its spec; a miss means "no
#: plane" and the caller generates locally — same result, more work.
_ACTIVE_REFS: dict[str, TraceRef] = {}


@contextlib.contextmanager
def use_refs(refs: Mapping[str, TraceRef] | None) -> Iterator[None]:
    """Install ``refs`` for the duration of one task body.

    On exit the mappings the body opened for them are closed, so a
    mapping lasts one task: once the parent removes a trace file after
    its last task, no process holds its pages.
    """
    if not refs:
        yield
        return
    previous = dict(_ACTIVE_REFS)
    _ACTIVE_REFS.update(refs)
    try:
        yield
    finally:
        _ACTIVE_REFS.clear()
        _ACTIVE_REFS.update(previous)
        for key in refs.keys() - previous.keys():
            attachment = _ATTACH_CACHE.pop((refs[key].generation, key), None)
            if attachment is not None:
                attachment.close()


def resolve(spec: TraceSpec) -> "TraceBundle | None":
    """The published bundle for ``spec``, or None when not installed."""
    ref = _ACTIVE_REFS.get(spec.key())
    if ref is None:
        return None
    return attach(ref)


# -- the plane (parent side) -------------------------------------------------


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - pid exists, not ours
        return True
    return True


def sweep_stale(root: str | Path) -> int:
    """Remove the directories of planes whose process died; returns how many.

    A plane's directory is named ``<pid>-<generation>``.  When that pid
    is gone, the plane leaked its files (SIGKILL of the whole process
    tree skips ``atexit``), so the directory is removed with everything
    in it.  Directories of live processes are left alone.
    """
    reaped = 0
    for entry in Path(root).glob("*-*"):
        pid = entry.name.partition("-")[0]
        if not pid.isdecimal() or not entry.is_dir() or _pid_alive(int(pid)):
            continue
        shutil.rmtree(entry, ignore_errors=True)
        reaped += 1
    return reaped


class TracePlane:
    """Parent-owned registry of published traces for one campaign.

    Construction sweeps the directories of dead planes, then makes this
    plane's own.  :meth:`publish` is idempotent per spec;
    :meth:`retain`/:meth:`release` refcount specs per pending task so a
    trace file is removed the moment its last task completes;
    :meth:`close` (idempotent, also registered with ``atexit`` and
    pid-guarded so forked workers can never trigger it) removes the
    directory with whatever remains in it.
    """

    def __init__(self, root: str | Path | None = None) -> None:
        from repro.harness.cache import default_cache_dir

        self.generation = uuid.uuid4().hex
        self.root = Path(root) if root is not None else default_cache_dir() / "traceplane"
        self._owner_pid = os.getpid()
        self._refs: dict[str, TraceRef] = {}
        self._refcounts: dict[str, int] = {}
        self._counter = 0
        self._closed = False
        sweep_stale(self.root)
        self.directory = self.root / f"{self._owner_pid}-{self.generation}"
        self.directory.mkdir(parents=True)
        atexit.register(self.close)

    # -- publishing ---------------------------------------------------------

    @property
    def refs(self) -> dict[str, TraceRef]:
        """spec key -> ref for every currently-published trace."""
        return dict(self._refs)

    @property
    def bytes_shared(self) -> int:
        return sum(ref.nbytes for ref in self._refs.values())

    def publish(self, spec: TraceSpec, bundle: "TraceBundle | None" = None) -> TraceRef:
        """Materialize ``spec`` (unless ``bundle`` is given) and share it."""
        if self._closed:
            raise TracePlaneError("cannot publish on a closed trace plane")
        key = spec.key()
        existing = self._refs.get(key)
        if existing is not None:
            return existing
        if bundle is None:
            bundle = spec.generate()
        # The per-CPU arrays are written one at a time — never through a
        # concatenated copy of the whole payload, which would double
        # peak memory.  A write that fails leaves a partial file in the
        # plane's directory, which close() removes.
        arrays = [np.ascontiguousarray(t) for t in bundle.per_cpu]
        nbytes = sum(int(a.nbytes) for a in arrays)
        self._counter += 1
        path = self.directory / f"{self._counter}.trace"
        with open(path, "wb") as fh:
            fh.write(_pack_header(self.generation, nbytes))
            for arr in arrays:
                fh.write(arr.data)
        ref = TraceRef(
            spec_key=key,
            generation=self.generation,
            location=str(path),
            nbytes=nbytes,
            lengths=tuple(int(t.size) for t in bundle.per_cpu),
            instructions=tuple(int(n) for n in bundle.instructions),
            workload=bundle.workload,
            meta_json=json.dumps(jsonable_meta(bundle.meta)),
        )
        self._refs[key] = ref
        obs.incr("harness/trace_plane/segments")
        obs.incr("harness/trace_plane/segments_live")
        obs.incr("harness/trace_plane/bytes_shared", nbytes)
        return ref

    def refs_for(self, specs: "list[TraceSpec]") -> dict[str, TraceRef]:
        """Publish every spec; returns spec key -> ref (order preserved)."""
        return {spec.key(): self.publish(spec) for spec in specs}

    # -- refcounted ownership ----------------------------------------------

    def retain(self, keys: "tuple[str, ...] | list[str]") -> None:
        """Charge one pending task's interest in each spec key."""
        for key in keys:
            if key in self._refs:
                self._refcounts[key] = self._refcounts.get(key, 0) + 1

    def release(self, keys: "tuple[str, ...] | list[str]") -> None:
        """Drop one task's interest; a count reaching zero removes early."""
        for key in keys:
            count = self._refcounts.get(key)
            if count is None:
                continue
            if count <= 1:
                del self._refcounts[key]
                self._unlink(key)
            else:
                self._refcounts[key] = count - 1

    def _unlink(self, key: str) -> None:
        ref = self._refs.pop(key, None)
        if ref is None:
            return
        with contextlib.suppress(OSError):
            os.unlink(ref.location)
        obs.incr("harness/trace_plane/segments_live", -1)

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Remove the plane's directory and every trace file in it.

        Idempotent, and a no-op in any process other than the creator:
        ``fork``-started workers inherit the plane object (and this
        method's ``atexit`` registration), and must not remove files
        the parent still owns.
        """
        if self._closed or os.getpid() != self._owner_pid:
            return
        self._closed = True
        _detach_generation(self.generation)
        for key in list(self._refs):
            self._unlink(key)
        self._refcounts.clear()
        shutil.rmtree(self.directory, ignore_errors=True)
        with contextlib.suppress(Exception):
            atexit.unregister(self.close)

    def __enter__(self) -> "TracePlane":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
