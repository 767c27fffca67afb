"""Campaign checkpoint/resume: a crash-safe journal of completed tasks.

A *campaign* is one CLI invocation's batch of harness tasks (all the
figures of a ``jmmw figures`` run, all the replicas of a
``characterize --runs N``).  Long campaigns die for boring reasons —
Ctrl-C, a batch-system preemption, a power cut — and restarting from
zero throws away hours of finished simulation.  The manifest fixes
that: :func:`repro.harness.run_tasks` appends one JSONL record per
completed task (fsynced, so the journal survives the same crash that
killed the run) and stores each successful result in a checksummed
sidecar store.  A later run of the *same* campaign opened with
:meth:`CampaignManifest.open_resume` serves those results back
bit-identically and only computes what is missing.

"Same campaign" is enforced, not assumed: the manifest header records
a signature hashed over the campaign's full input description —
including the package code version, via
:func:`repro.harness.cache.content_key` — and a resume against a
mismatching signature silently starts fresh.  A result can therefore
never be resumed into a campaign whose inputs or code could produce a
different answer.

The journal tolerates its own crashes: a torn final line (the writer
died mid-append) is skipped on load, and the result store quarantines
corrupt entries, so the worst case is recomputing the last task.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.harness.cache import ResultCache

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.harness.runner import TaskOutcome

#: Bump when the journal line layout changes.
MANIFEST_FORMAT = 1


def read_journal(path: str | Path) -> tuple[dict | None, list[dict]]:
    """``(header, records)`` of a journal; never writes.

    Blank lines are skipped and a torn line (the writer died
    mid-append) ends the parse: everything before it is intact,
    everything after is unreachable anyway.  ``header`` is None for a
    missing journal or one whose first record is not a header; a
    journal in another :data:`MANIFEST_FORMAT` yields its header and no
    records, since its lines need not have this layout.
    """
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError:
        return None, []
    records = []
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:
            break
    if not records or not isinstance(records[0], dict) or "campaign" not in records[0]:
        return None, []
    header = records[0]
    return header, records[1:] if header.get("format") == MANIFEST_FORMAT else []


def resumable(header: dict | None, signature: str) -> bool:
    """Whether a journal with ``header`` can resume campaign ``signature``:
    the same signature, written in this code's :data:`MANIFEST_FORMAT`."""
    return (
        header is not None
        and header.get("campaign") == signature
        and header.get("format") == MANIFEST_FORMAT
    )


class CampaignManifest:
    """Incremental JSONL journal of one campaign's task outcomes.

    Construct through :meth:`open_fresh` (truncate and start over) or
    :meth:`open_resume` (load completed work if the signature matches).
    The runner calls :meth:`record` once per final task outcome and
    :meth:`lookup` to serve previously-completed results.
    """

    def __init__(self, path: str | Path, signature: str, *, resume: bool) -> None:
        self.path = Path(path)
        self.signature = signature
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.store = ResultCache(self.path.with_suffix(".store"))
        #: task key -> store ref, for completed-ok tasks found on resume.
        self._completed: dict[str, str] = {}
        self.resumed = False
        if resume:
            self.resumed = self._load()
        mode = "a" if self.resumed else "w"
        self._fh = self.path.open(mode, encoding="utf-8")
        if not self.resumed:
            self._append(
                {"campaign": self.signature, "format": MANIFEST_FORMAT}
            )

    # -- constructors ------------------------------------------------------

    @classmethod
    def open_fresh(cls, path: str | Path, signature: str) -> "CampaignManifest":
        """Start a new journal, discarding any previous one at ``path``."""
        return cls(path, signature, resume=False)

    @classmethod
    def open_resume(cls, path: str | Path, signature: str) -> "CampaignManifest":
        """Load completed work from ``path`` if its signature matches.

        A missing journal, an unreadable header, a signature from a
        different campaign (other inputs, other code version) or another
        journal format all fall back to a fresh journal (:func:`resumable`)
        — resuming foreign results would break the bit-identical
        guarantee.
        """
        return cls(path, signature, resume=True)

    # -- journal I/O -------------------------------------------------------

    def _load(self) -> bool:
        """Parse the existing journal; returns True if it is resumable."""
        header, records = read_journal(self.path)
        if not resumable(header, self.signature):
            return False
        for record in records:
            key = record.get("task")
            if not isinstance(key, str):
                continue
            ref = record.get("ref")
            if record.get("status") == "ok" and isinstance(ref, str):
                # Last record for a key wins (a re-run overwrites).
                if ref in self.store:
                    self._completed[key] = ref
            else:
                self._completed.pop(key, None)
        return True

    def _append(self, record: dict[str, Any]) -> None:
        self._fh.write(json.dumps(record, sort_keys=True) + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def _store_key(self, task_key: str) -> str:
        return hashlib.sha256(
            f"{self.signature}\0{task_key}".encode()
        ).hexdigest()

    # -- runner interface --------------------------------------------------

    @property
    def completed(self) -> frozenset[str]:
        """Task keys whose results can be served without recomputing."""
        return frozenset(self._completed)

    def lookup(self, task_key: str) -> tuple[bool, Any]:
        """``(True, value)`` if ``task_key`` completed in a prior run."""
        ref = self._completed.get(task_key)
        if ref is None:
            return False, None
        return self.store.get(ref)

    def record(self, task_key: str, outcome: "TaskOutcome") -> None:
        """Journal one final task outcome (fsynced before returning).

        Successful values land in the result store first, then the
        journal line referencing them — so a crash between the two
        leaves an orphaned store entry (harmless), never a journal
        line pointing at nothing.
        """
        if outcome.ok:
            ref: str | None = self._store_key(task_key)
            try:
                self.store.put(ref, outcome.value)
            except Exception:
                # An unpicklable value cannot be resumed; journal the
                # completion anyway so the campaign log stays complete.
                ref = None
            record = {
                "task": task_key,
                "status": "ok",
                "ref": ref,
                "attempts": outcome.attempts,
                "wall_s": round(outcome.wall_s, 6),
            }
            if ref is not None:
                self._completed[task_key] = ref
        else:
            record = {
                "task": task_key,
                "status": "failed",
                "kind": outcome.failure.kind,
                "error": outcome.failure.error,
                "attempts": outcome.attempts,
            }
            self._completed.pop(task_key, None)
        self._append(record)

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "CampaignManifest":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
