"""Trace persistence.

Figure sweeps replay the same trace through many configurations; a
saved trace also makes a run exactly repeatable across processes (the
Simics workflow the paper used kept checkpoint+trace artifacts for the
same reason).  Traces are stored as compressed numpy archives: one
``uint64`` array per processor plus instruction counts and metadata.

Loading validates everything — archive integrity, header shape, array
presence, dtype and dimensionality — and raises
:class:`~repro.errors.TraceFileError` (an :class:`AnalysisError`) on
any defect, so a truncated or hand-mangled file fails loudly at load
time instead of surfacing later as a silently wrong curve.
"""

from __future__ import annotations

import json
import zipfile
import zlib
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import TraceFileError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.workloads.base import TraceBundle

#: Format marker for forward compatibility.
FORMAT_VERSION = 1


def save_trace(bundle: TraceBundle, path: str | Path) -> Path:
    """Write a trace bundle to ``path`` (``.npz`` appended if missing)."""
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    arrays = {
        f"cpu{idx}": np.asarray(trace, dtype=np.uint64)
        for idx, trace in enumerate(bundle.per_cpu)
    }
    header = {
        "version": FORMAT_VERSION,
        "workload": bundle.workload,
        "n_procs": bundle.n_procs,
        "instructions": bundle.instructions,
        "meta": jsonable_meta(bundle.meta),
    }
    arrays["header"] = np.frombuffer(
        json.dumps(header).encode("utf-8"), dtype=np.uint8
    )
    np.savez_compressed(path, **arrays)
    return path


def load_trace(path: str | Path) -> TraceBundle:
    """Read and validate a trace bundle written by :func:`save_trace`.

    Raises :class:`~repro.errors.TraceFileError` for a missing or
    unreadable archive, a truncated member, a malformed header, or an
    array with the wrong dtype/shape — never a bare numpy/zipfile
    exception.
    """
    from repro.workloads.base import TraceBundle

    path = Path(path)
    if not path.exists():
        raise TraceFileError(f"trace file {path} does not exist")
    try:
        archive = np.load(path)
    except (OSError, ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise TraceFileError(f"{path}: unreadable trace archive ({exc})") from exc
    with archive as data:
        header = _read_header(data, path)
        n_procs = header["n_procs"]
        instructions = header["instructions"]
        if not isinstance(n_procs, int) or n_procs < 0:
            raise TraceFileError(f"{path}: invalid n_procs {n_procs!r}")
        if not isinstance(instructions, list) or len(instructions) != n_procs:
            raise TraceFileError(
                f"{path}: instructions length "
                f"{len(instructions) if isinstance(instructions, list) else '?'} "
                f"does not match n_procs {n_procs}"
            )
        per_cpu = [_read_stream(data, idx, path) for idx in range(n_procs)]
    return TraceBundle(
        workload=header["workload"],
        per_cpu=per_cpu,
        instructions=list(instructions),
        meta=dict(header["meta"]),
    )


def _read_header(data, path: Path) -> dict:
    if "header" not in data:
        raise TraceFileError(f"{path} is not a repro trace file")
    try:
        header = json.loads(bytes(data["header"].tobytes()).decode("utf-8"))
    except (zipfile.BadZipFile, zlib.error, OSError, EOFError, ValueError) as exc:
        raise TraceFileError(f"{path}: corrupt trace header ({exc})") from exc
    if not isinstance(header, dict):
        raise TraceFileError(f"{path}: trace header is not an object")
    if header.get("version") != FORMAT_VERSION:
        raise TraceFileError(
            f"{path}: unsupported trace format version {header.get('version')}"
        )
    missing = [k for k in ("workload", "n_procs", "instructions", "meta") if k not in header]
    if missing:
        raise TraceFileError(f"{path}: trace header missing {missing}")
    return header


def _read_stream(data, idx: int, path: Path) -> np.ndarray:
    name = f"cpu{idx}"
    if name not in data:
        raise TraceFileError(f"{path}: missing per-CPU array {name!r}")
    try:
        # Decompression happens here; a truncated archive member
        # surfaces as a zip/zlib error on this read.
        array = data[name]
    except (zipfile.BadZipFile, zlib.error, OSError, EOFError, ValueError) as exc:
        raise TraceFileError(f"{path}: truncated or corrupt array {name!r} ({exc})") from exc
    if array.dtype != np.uint64:
        raise TraceFileError(
            f"{path}: array {name!r} has dtype {array.dtype}, expected uint64"
        )
    if array.ndim != 1:
        raise TraceFileError(
            f"{path}: array {name!r} has shape {array.shape}, expected 1-D"
        )
    return array


def jsonable_meta(meta: dict) -> dict:
    """``meta`` with every value JSON cannot encode replaced by its
    ``str``: the form both the ``.npz`` header and the trace plane's
    :class:`~repro.harness.traceplane.TraceRef` carry."""
    out = {}
    for key, value in meta.items():
        try:
            json.dumps(value)
        except TypeError:
            value = str(value)
        out[key] = value
    return out
