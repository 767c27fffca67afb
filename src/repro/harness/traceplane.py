"""Shared-memory trace plane: generate once, replay many.

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
- the bundle's arrays are published into a named
  :mod:`multiprocessing.shared_memory` segment — or an mmap-backed
  *spill file* when the trace reaches :data:`DEFAULT_SPILL_BYTES`,
  so traces larger than ``/dev/shm`` still share pages through the
  page cache (``JMMW_TRACE_PLANE_SPILL`` sets the threshold, and ``0``
  keeps every trace off ``/dev/shm``);
- workers receive only a :class:`TraceRef` — a few hundred bytes —
  and :func:`attach` maps the segment read-only and rebuilds the
  bundle as zero-copy array views.  A mapping lasts one task: the
  parent unmaps a segment once written, and :func:`use_refs` closes
  a task's mappings when the task ends.

Lifecycle and crash safety:

- every segment carries a 64-byte header (magic, plane *generation*,
  payload size); :func:`attach` validates all three and raises
  :class:`~repro.errors.TracePlaneError` on any mismatch — a stale
  ref from an earlier campaign or a truncated spill file fails loudly
  instead of replaying silently wrong data;
- the parent owns every segment: :meth:`TracePlane.close` unlinks
  them all, so a worker killed by the watchdog (SIGKILL skips all
  child cleanup) can never leak — its mappings die with it and the
  name is still the parent's to remove;
- segment refcounts (:meth:`TracePlane.retain` on dispatch,
  :meth:`TracePlane.release` when a task reaches its final outcome —
  see ``run_tasks(..., plane=...)``) unlink a segment as soon as the
  last task needing it completes, before campaign end;
- a *ledger* file records this process's pid and every published
  segment; :func:`sweep_stale` (run by every new plane, or manually)
  reaps segments whose owning process died without closing, and an
  ``atexit`` hook backstops normal interpreter exits.

Everything is deterministic: trace generation draws from stateless
:class:`~repro.rng.RngFactory` streams, so a plane-published bundle is
bit-identical to the one a worker would have regenerated: a task that
runs without a ref generates locally with byte-identical results.

Obs counters (``jmmw ... --obs``): ``harness/trace_plane/segments``
(published), ``segments_live`` (published minus unlinked),
``bytes_shared``, ``spill_segments``, ``attaches`` and
``pickle_bytes_avoided`` (bytes that did *not* travel through a task
pipe because the worker attached instead).
"""

from __future__ import annotations

import atexit
import contextlib
import json
import os
import struct
import sys
import uuid
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Mapping

import numpy as np

from repro import obs
from repro.core.config import SimConfig
from repro.errors import ConfigError, TracePlaneError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.workloads.base import TraceBundle

#: Environment override for the shm -> spill-file threshold (bytes);
#: ``0`` spills every trace, keeping them all off ``/dev/shm``.
SPILL_ENV = "JMMW_TRACE_PLANE_SPILL"

#: Payloads at or above this spill to an mmap-backed file instead of
#: ``/dev/shm`` (which is typically capped at half of RAM).
DEFAULT_SPILL_BYTES = 256 * 1024 * 1024

#: Shared-memory segment names: ``jmmw-tp-<generation[:8]>-<n>``.
SEGMENT_PREFIX = "jmmw-tp-"

#: First bytes of every segment and spill file.
HEADER_MAGIC = b"jmmw-traceplane\x01"

#: Fixed header: magic (16) + generation (32 hex) + payload nbytes (8)
#: + padding to a 64-byte, 8-aligned data offset.
HEADER_BYTES = 64


def spill_threshold() -> int:
    """Payload size (bytes) at which publishing spills to a file.

    Raises :class:`~repro.errors.ConfigError` when
    ``JMMW_TRACE_PLANE_SPILL`` is set to anything but a non-negative
    integer: a typo must not silently put traces back on ``/dev/shm``.
    """
    raw = os.environ.get(SPILL_ENV, "").strip()
    if not raw:
        return DEFAULT_SPILL_BYTES
    if not raw.isdecimal():
        raise ConfigError(
            f"{SPILL_ENV} must be a non-negative integer byte count, got {raw!r}"
        )
    return int(raw)


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
    ``backend`` is ``"shm"`` (``location`` is a segment name) or
    ``"spill"`` (``location`` is a file path); ``generation`` ties the
    ref to the plane that published it, so refs cannot outlive their
    campaign undetected.
    """

    spec_key: str
    generation: str
    backend: str
    location: str
    nbytes: int
    lengths: tuple[int, ...]
    instructions: tuple[int, ...]
    workload: str
    meta_json: str


# -- segment layout ----------------------------------------------------------


def _pack_header(generation: str, nbytes: int) -> bytes:
    header = HEADER_MAGIC + generation.encode("ascii") + struct.pack("<Q", nbytes)
    return header.ljust(HEADER_BYTES, b"\0")


def _parse_header(buf: bytes, what: str) -> tuple[str, int]:
    if len(buf) < HEADER_BYTES:
        raise TracePlaneError(f"{what}: truncated header ({len(buf)} bytes)")
    if buf[:16] != HEADER_MAGIC:
        raise TracePlaneError(f"{what}: not a trace-plane segment (bad magic)")
    generation = buf[16:48].decode("ascii", errors="replace")
    (nbytes,) = struct.unpack("<Q", buf[48:56])
    return generation, nbytes


def _open_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without resource-tracker tracking.

    On Python < 3.13 every ``SharedMemory(name=...)`` attach registers
    the segment with the process's resource tracker, which then unlinks
    it when *this* process exits — yanking the segment out from under
    the parent and every sibling worker.  Tracking belongs to the
    creator only, so attaches temporarily no-op the registration (the
    3.13+ ``track=False`` parameter, backported by hand).
    """
    if sys.version_info >= (3, 13):  # pragma: no cover - newer runtime
        return shared_memory.SharedMemory(name=name, track=False)
    original = resource_tracker.register

    def _skip_shm(path: str, rtype: str) -> None:
        if rtype != "shared_memory":
            original(path, rtype)

    resource_tracker.register = _skip_shm
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


def _close_shm_mapping(segment: shared_memory.SharedMemory) -> None:
    """Close a mapped segment, tolerating live numpy views.

    ``SharedMemory.close`` raises ``BufferError`` while views into the
    buffer exist — and its ``__del__`` would retry at GC time and spam
    "Exception ignored" tracebacks to stderr.  When views are still
    alive, leave the mapping in place for them (it is reclaimed when
    the process exits), close just the descriptor, and disarm the
    destructor's retry.
    """
    try:
        segment.close()
    except BufferError:
        segment._buf = None
        segment._mmap = None
        fd = getattr(segment, "_fd", -1)
        if isinstance(fd, int) and fd >= 0:
            with contextlib.suppress(OSError):
                os.close(fd)
            segment._fd = -1
    except OSError:
        pass


# -- attach (worker side) ----------------------------------------------------


class _Attachment:
    """One process-local mapping of a published segment."""

    def __init__(self, ref: TraceRef, base: np.ndarray, closer) -> None:
        self.ref = ref
        self.base = base
        self._closer = closer

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
        self.base = None
        if self._closer is not None:
            with contextlib.suppress(BufferError, OSError):
                self._closer()
            self._closer = None


#: Process-local attachment cache: a task that fetches one trace twice
#: maps it once, and :func:`use_refs` closes the task's mappings when
#: the task ends.  Keyed by (generation, spec_key) so a ref from a
#: different plane generation can never hit a stale entry.
_ATTACH_CACHE: dict[tuple[str, str], _Attachment] = {}


def _attach_shm(ref: TraceRef) -> _Attachment:
    try:
        segment = _open_segment(ref.location)
    except FileNotFoundError:
        raise TracePlaneError(
            f"trace segment {ref.location!r} no longer exists "
            "(stale TraceRef: its campaign ended or its plane closed)"
        ) from None
    try:
        generation, nbytes = _parse_header(
            bytes(segment.buf[:HEADER_BYTES]), ref.location
        )
        if generation != ref.generation:
            raise TracePlaneError(
                f"trace segment {ref.location!r} belongs to plane generation "
                f"{generation[:8]}, ref was issued by {ref.generation[:8]} "
                "(stale TraceRef)"
            )
        if nbytes != ref.nbytes or segment.size < HEADER_BYTES + ref.nbytes:
            raise TracePlaneError(
                f"trace segment {ref.location!r}: payload is {nbytes} bytes, "
                f"ref expects {ref.nbytes} (truncated or corrupt segment)"
            )
        base = np.frombuffer(
            segment.buf, dtype=np.uint64, count=ref.nbytes // 8,
            offset=HEADER_BYTES,
        )
    except TracePlaneError:
        _close_shm_mapping(segment)
        raise
    return _Attachment(ref, base, lambda: _close_shm_mapping(segment))


def _attach_spill(ref: TraceRef) -> _Attachment:
    path = Path(ref.location)
    try:
        size = path.stat().st_size
        with path.open("rb") as fh:
            header = fh.read(HEADER_BYTES)
    except FileNotFoundError:
        raise TracePlaneError(
            f"spill file {path} no longer exists (stale TraceRef)"
        ) from None
    generation, nbytes = _parse_header(header, str(path))
    if generation != ref.generation:
        raise TracePlaneError(
            f"spill file {path} belongs to plane generation "
            f"{generation[:8]}, ref was issued by {ref.generation[:8]} "
            "(stale TraceRef)"
        )
    if nbytes != ref.nbytes or size < HEADER_BYTES + ref.nbytes:
        raise TracePlaneError(
            f"spill file {path}: {size} bytes on disk cannot hold the "
            f"{ref.nbytes}-byte payload the ref expects (truncated file)"
        )
    mapped = np.memmap(path, dtype=np.uint64, mode="r", offset=HEADER_BYTES,
                       shape=(ref.nbytes // 8,))
    return _Attachment(ref, np.asarray(mapped), mapped._mmap.close)


def attach(ref: TraceRef) -> "TraceBundle":
    """Map a published trace and rebuild its bundle, zero-copy.

    Validates the segment's magic, generation and payload size against
    the ref and raises :class:`~repro.errors.TracePlaneError` on any
    mismatch.  A mapping is cached until the :func:`use_refs` block
    that installed ``ref`` exits (or :func:`detach_all`).
    """
    if ref.backend not in ("shm", "spill"):
        raise TracePlaneError(f"unknown trace-plane backend {ref.backend!r}")
    cache_key = (ref.generation, ref.spec_key)
    attachment = _ATTACH_CACHE.get(cache_key)
    if attachment is None:
        attachment = _attach_shm(ref) if ref.backend == "shm" else _attach_spill(ref)
        _ATTACH_CACHE[cache_key] = attachment
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
    mapping lasts one task: once the parent unlinks a segment after
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


class _Segment:
    """Parent-side record of one published segment."""

    def __init__(self, ref: TraceRef, shm: shared_memory.SharedMemory | None,
                 spill: Path | None) -> None:
        self.ref = ref
        self.shm = shm
        self.spill = spill


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - pid exists, not ours
        return True
    return True


def _unlink_shm_by_name(name: str) -> None:
    try:
        segment = _open_segment(name)
    except FileNotFoundError:
        return
    with contextlib.suppress(BufferError, OSError):
        segment.unlink()
    _close_shm_mapping(segment)


def sweep_stale(root: str | Path) -> int:
    """Reap segments whose owning process died; returns segments reaped.

    Reads every ``*.ledger`` under ``root``; a ledger whose recorded
    pid is gone has leaked its segments (SIGKILL of the whole process
    tree skips ``atexit``), so its shm names are unlinked, its spill
    files removed, and the ledger deleted.  Ledgers of live processes
    are left alone.
    """
    root = Path(root)
    reaped = 0
    for ledger in sorted(root.glob("*.ledger")):
        try:
            lines = ledger.read_text(encoding="utf-8").splitlines()
            head = json.loads(lines[0]) if lines else {}
        except (OSError, json.JSONDecodeError):
            continue
        pid = head.get("pid")
        if isinstance(pid, int) and _pid_alive(pid):
            continue
        for line in lines[1:]:
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                continue
            if entry.get("backend") == "shm":
                _unlink_shm_by_name(entry.get("location", ""))
                reaped += 1
            elif entry.get("backend") == "spill":
                with contextlib.suppress(OSError):
                    Path(entry.get("location", "")).unlink()
                reaped += 1
        with contextlib.suppress(OSError):
            ledger.unlink()
    return reaped


class TracePlane:
    """Parent-owned registry of published traces for one campaign.

    Construction sweeps stale segments left by dead processes, then
    writes this process's ledger.  :meth:`publish` is idempotent per
    spec; :meth:`retain`/:meth:`release` refcount specs per pending
    task so a segment is unlinked the moment its last task completes;
    :meth:`close` (idempotent, also registered with ``atexit`` and
    pid-guarded so forked workers can never trigger it) unlinks
    whatever remains and removes the ledger.
    """

    def __init__(self, root: str | Path | None = None,
                 spill_bytes: int | None = None) -> None:
        from repro.harness.cache import default_cache_dir

        self.generation = uuid.uuid4().hex
        self.root = Path(root) if root is not None else default_cache_dir() / "traceplane"
        self.root.mkdir(parents=True, exist_ok=True)
        self.spill_bytes = spill_bytes if spill_bytes is not None else spill_threshold()
        self._owner_pid = os.getpid()
        self._segments: dict[str, _Segment] = {}
        self._refcounts: dict[str, int] = {}
        self._counter = 0
        self._closed = False
        sweep_stale(self.root)
        self._ledger = self.root / f"{self.generation}.ledger"
        self._ledger.write_text(
            json.dumps({"pid": self._owner_pid, "generation": self.generation})
            + "\n",
            encoding="utf-8",
        )
        atexit.register(self.close)

    # -- publishing ---------------------------------------------------------

    @property
    def refs(self) -> dict[str, TraceRef]:
        """spec key -> ref for every currently-published segment."""
        return {key: seg.ref for key, seg in self._segments.items()}

    @property
    def bytes_shared(self) -> int:
        return sum(seg.ref.nbytes for seg in self._segments.values())

    def publish(self, spec: TraceSpec, bundle: "TraceBundle | None" = None) -> TraceRef:
        """Materialize ``spec`` (unless ``bundle`` is given) and share it."""
        if self._closed:
            raise TracePlaneError("cannot publish on a closed trace plane")
        key = spec.key()
        existing = self._segments.get(key)
        if existing is not None:
            return existing.ref
        if bundle is None:
            bundle = spec.generate()
        # Publication streams the per-CPU arrays into the segment one
        # at a time — never through a concatenated copy of the whole
        # payload, which used to double peak memory at exactly the
        # sizes where spilling was supposed to relieve it.
        arrays = [np.ascontiguousarray(t) for t in bundle.per_cpu]
        nbytes = sum(int(a.nbytes) for a in arrays)
        header = _pack_header(self.generation, nbytes)
        self._counter += 1
        meta_json = json.dumps(_jsonable_meta(bundle.meta))
        common = dict(
            spec_key=key,
            generation=self.generation,
            nbytes=nbytes,
            lengths=tuple(int(t.size) for t in bundle.per_cpu),
            instructions=tuple(int(n) for n in bundle.instructions),
            workload=bundle.workload,
            meta_json=meta_json,
        )
        if nbytes >= self.spill_bytes:
            path = self.root / f"{SEGMENT_PREFIX}{self.generation[:8]}-{self._counter}.trace"
            with path.open("wb") as fh:
                fh.write(header)
                for arr in arrays:
                    if arr.nbytes:
                        fh.write(arr.data)
                fh.flush()
                os.fsync(fh.fileno())
            ref = TraceRef(backend="spill", location=str(path), **common)
            segment = _Segment(ref, shm=None, spill=path)
            obs.incr("harness/trace_plane/spill_segments")
        else:
            name = f"{SEGMENT_PREFIX}{self.generation[:8]}-{self._counter}"
            shm = shared_memory.SharedMemory(
                create=True, size=HEADER_BYTES + max(8, nbytes), name=name
            )
            shm.buf[:HEADER_BYTES] = header
            if nbytes:
                view = np.frombuffer(
                    shm.buf, dtype=np.uint64, count=nbytes // 8,
                    offset=HEADER_BYTES,
                )
                start = 0
                for arr in arrays:
                    view[start : start + arr.size] = arr
                    start += int(arr.size)
                del view
            # From here on the parent only names the segment: its pages
            # are mapped by the tasks that attach it, while they run.
            _close_shm_mapping(shm)
            ref = TraceRef(backend="shm", location=name, **common)
            segment = _Segment(ref, shm=shm, spill=None)
        self._segments[key] = segment
        with self._ledger.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps({"backend": ref.backend, "location": ref.location}) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        obs.incr("harness/trace_plane/segments")
        obs.incr("harness/trace_plane/segments_live")
        obs.incr("harness/trace_plane/bytes_shared", ref.nbytes)
        return ref

    def refs_for(self, specs: "list[TraceSpec]") -> dict[str, TraceRef]:
        """Publish every spec; returns spec key -> ref (order preserved)."""
        return {spec.key(): self.publish(spec) for spec in specs}

    # -- refcounted ownership ----------------------------------------------

    def retain(self, keys: "tuple[str, ...] | list[str]") -> None:
        """Charge one pending task's interest in each spec key."""
        for key in keys:
            if key in self._segments:
                self._refcounts[key] = self._refcounts.get(key, 0) + 1

    def release(self, keys: "tuple[str, ...] | list[str]") -> None:
        """Drop one task's interest; a count reaching zero unlinks early."""
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
        segment = self._segments.pop(key, None)
        if segment is None:
            return
        if segment.shm is not None:
            with contextlib.suppress(OSError):
                segment.shm.unlink()
        if segment.spill is not None:
            with contextlib.suppress(OSError):
                segment.spill.unlink()
        obs.incr("harness/trace_plane/segments_live", -1)

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Unlink every remaining segment and retire the ledger.

        Idempotent, and a no-op in any process other than the creator:
        ``fork``-started workers inherit the plane object (and this
        method's ``atexit`` registration), and must not tear down
        segments the parent still owns.
        """
        if self._closed or os.getpid() != self._owner_pid:
            return
        self._closed = True
        _detach_generation(self.generation)
        for key in list(self._segments):
            self._unlink(key)
        self._refcounts.clear()
        with contextlib.suppress(OSError):
            self._ledger.unlink()
        with contextlib.suppress(Exception):
            atexit.unregister(self.close)

    def __enter__(self) -> "TracePlane":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _jsonable_meta(meta: dict) -> dict:
    out = {}
    for key, value in meta.items():
        try:
            json.dumps(value)
        except TypeError:
            value = str(value)
        out[key] = value
    return out
