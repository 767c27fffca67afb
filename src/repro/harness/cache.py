"""Content-addressed on-disk result cache.

A measurement is fully determined by its inputs: the simulation config,
the workload, the replica index — and the code that ran it.  The cache
keys each result by a SHA-256 over exactly those, so ``jmmw figures``
re-runs only what changed: edit a simulator module and every key
changes (the code-version component); tweak one figure's SimConfig and
only that figure misses.

Entries live under ``<root>/<k[:2]>/<k>.pkl`` (fan-out keeps
directories small) as a checksummed container: a magic header, the
SHA-256 of the pickled payload, then the payload itself.  Writes go
through a temp file that is fsynced and atomically renamed, so a killed
run — or two processes sharing the cache directory — can never leave a
half-written entry where a reader finds it.  An entry that fails the
magic or checksum test (truncation, bit rot, a torn write from a
pre-atomic tool) is *quarantined*: moved aside under
``<root>/quarantine/`` and treated as a miss, so a corrupt entry costs
one recompute, never a crashed campaign.  The cache root resolves, in
order, from ``JMMW_CACHE_DIR``, ``$XDG_CACHE_HOME/jmmw``,
``~/.cache/jmmw``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import pickle
import tempfile
from pathlib import Path
from typing import Any

from repro.core.config import SimConfig

#: Bump when the on-disk payload layout changes.
CACHE_FORMAT = 2

#: Leading bytes of every entry; version byte tracks CACHE_FORMAT.
ENTRY_MAGIC = b"jmmw-cache\x02\n"

#: Subdirectory (under the cache root) holding quarantined entries.
QUARANTINE_DIR = "quarantine"

_code_version: str | None = None


def code_version() -> str:
    """SHA-256 over every ``repro`` source file (memoized per process).

    Any edit anywhere in the package invalidates the whole cache —
    coarse, but sound: a result can never be served by code that did
    not produce it.
    """
    global _code_version
    if _code_version is None:
        import repro

        package_root = Path(repro.__file__).resolve().parent
        digest = hashlib.sha256()
        for source in sorted(package_root.rglob("*.py")):
            digest.update(str(source.relative_to(package_root)).encode())
            digest.update(b"\0")
            digest.update(source.read_bytes())
        _code_version = digest.hexdigest()
    return _code_version


def sim_fields(sim: SimConfig) -> dict[str, Any]:
    """SimConfig as a plain dict, for inclusion in a cache key."""
    return dataclasses.asdict(sim)


def content_key(**fields: Any) -> str:
    """SHA-256 key over canonical JSON of ``fields`` + the code version.

    Values must be JSON-serializable; pass SimConfigs through
    :func:`sim_fields`.  Key order does not matter (keys are sorted).
    """
    payload = {"__code__": code_version(), "__format__": CACHE_FORMAT}
    for name, value in fields.items():
        if isinstance(value, SimConfig):
            value = sim_fields(value)
        payload[name] = value
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def run_switches() -> dict[str, bool]:
    """The process-wide switches every result key and campaign
    signature records, as ``content_key`` fields.

    A hit across either would silently skip work the run asked for:
    the replay path (``fastpath``: a scalar-reference run must not be
    served a vectorized result) and invariant checking (``checked``: a
    checked run must not be served an unchecked one).
    """
    from repro.memsys.fastpath import fastpath_enabled
    from repro.memsys.invariants import checking_enabled

    return {"fastpath": fastpath_enabled(), "checked": checking_enabled()}


def default_cache_dir() -> Path:
    """Where the CLI keeps its cache unless ``JMMW_CACHE_DIR`` says else."""
    override = os.environ.get("JMMW_CACHE_DIR")
    if override:
        return Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "jmmw"


#: Sentinel distinguishing "miss" from a cached ``None``.
_MISS = object()


class ResultCache:
    """Checksummed pickle store addressed by :func:`content_key`.

    Safe for concurrent use by multiple processes sharing one root:
    writes are atomic renames of fsynced temp files, so a reader only
    ever sees a complete entry or none; entries that fail verification
    are quarantined (counted in :attr:`quarantined`) and re-read as
    misses.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        #: Entries moved aside by this process after failing verification.
        self.quarantined = 0

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    def get(self, key: str) -> tuple[bool, Any]:
        """``(True, value)`` on a hit, ``(False, None)`` on a miss."""
        value = self._load(key)
        if value is _MISS:
            return False, None
        return True, value

    def _load(self, key: str) -> Any:
        path = self._path(key)
        try:
            data = path.read_bytes()
        except OSError:
            # Absent, or vanished mid-read (concurrent clear): a miss.
            return _MISS
        if not data.startswith(ENTRY_MAGIC):
            return self._reject_unframed(path, data)
        digest = data[len(ENTRY_MAGIC) : len(ENTRY_MAGIC) + 32]
        blob = data[len(ENTRY_MAGIC) + 32 :]
        if hashlib.sha256(blob).digest() != digest:
            return self._quarantine(path)
        try:
            payload = pickle.loads(blob)
        except Exception:
            # Checksum passed but unpickling failed: a payload written
            # by an incompatible interpreter/library — keep it aside.
            return self._quarantine(path)
        if not isinstance(payload, dict) or payload.get("format") != CACHE_FORMAT:
            # A well-formed entry from a different layout version is
            # stale, not corrupt: drop it silently.
            path.unlink(missing_ok=True)
            return _MISS
        return payload["value"]

    def _reject_unframed(self, path: Path, data: bytes) -> Any:
        """Handle an entry without the magic header."""
        try:
            payload = pickle.loads(data)
        except Exception:
            return self._quarantine(path)
        if isinstance(payload, dict) and "format" in payload:
            # Pre-checksum cache layout: stale, drop silently.
            path.unlink(missing_ok=True)
            return _MISS
        return self._quarantine(path)

    def _quarantine(self, path: Path) -> Any:
        """Move a corrupt entry aside and report a miss.

        The entry is preserved under ``quarantine/`` for post-mortem
        inspection rather than deleted: a corrupt result is evidence
        of a fault (disk, interrupted writer, version skew) that a
        silent unlink would destroy.  Races with other readers are
        benign — whoever replaces first wins, the rest no-op.
        """
        self.quarantined += 1
        qdir = self.root / QUARANTINE_DIR
        with contextlib.suppress(OSError):
            qdir.mkdir(parents=True, exist_ok=True)
            os.replace(path, qdir / path.name)
        with contextlib.suppress(OSError):
            path.unlink(missing_ok=True)
        return _MISS

    def put(self, key: str, value: Any) -> None:
        """Store ``value`` atomically and durably under ``key``.

        The temp file is fsynced before the rename: after ``put``
        returns, a crash (even a power cut, on a journaling fs) leaves
        either the complete new entry or whatever was there before —
        never a torn one.

        A concurrent :meth:`clear` may sweep this writer's temp file
        (or its fan-out directory) out from under the rename; that
        specific race is retried with a fresh temp file rather than
        surfaced, so two processes sharing a root can put/clear freely.
        """
        payload = {"format": CACHE_FORMAT, "key": key, "value": value}
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        digest = hashlib.sha256(blob).digest()
        path = self._path(key)
        for attempt in range(8):
            path.parent.mkdir(parents=True, exist_ok=True)
            try:
                fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            except FileNotFoundError:
                continue  # parent swept between mkdir and mkstemp
            try:
                with os.fdopen(fd, "wb") as fh:
                    fh.write(ENTRY_MAGIC)
                    fh.write(digest)
                    fh.write(blob)
                    fh.flush()
                    os.fsync(fh.fileno())
                os.replace(tmp_name, path)
                return
            except FileNotFoundError:
                # The temp file vanished (concurrent clear): try again.
                with contextlib.suppress(OSError):
                    os.unlink(tmp_name)
                continue
            except BaseException:
                with contextlib.suppress(OSError):
                    os.unlink(tmp_name)
                raise
        raise OSError(  # pragma: no cover - pathological contention
            f"cache put for {key} lost its temp file {attempt + 1} times"
        )

    def _entries(self):
        for entry in self.root.glob("*/*.pkl"):
            if entry.parent.name != QUARANTINE_DIR:
                yield entry

    def probably_has(self, key: str) -> bool:
        """Cheap existence hint: an entry file is present for ``key``.

        Does **not** verify the checksum (that costs a full read), so a
        True may still turn into a miss-with-quarantine at
        :meth:`get` time.  Used by task builders to skip expensive
        preparation (e.g. publishing traces to the trace plane) for
        work that will almost certainly be served from cache; a wrong
        hint costs only the skipped optimization, never correctness.
        """
        return self._path(key).exists()

    def __contains__(self, key: str) -> bool:
        return self._load(key) is not _MISS

    def __len__(self) -> int:
        return sum(1 for _ in self._entries())

    def clear(self) -> None:
        """Remove every entry, tolerating concurrent writers and readers.

        Unlink-only (no directory removal), so a concurrent ``put``
        racing with ``clear`` either lands after (entry survives) or
        is removed whole — a reader can never observe a half-entry.
        Quarantined entries are purged too.
        """
        for entry in self.root.glob("*/*.pkl"):
            with contextlib.suppress(OSError):
                entry.unlink(missing_ok=True)
        for leftover in self.root.glob("*/*.tmp"):
            with contextlib.suppress(OSError):
                leftover.unlink(missing_ok=True)
