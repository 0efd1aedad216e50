"""Durable serving state: the append-only job journal.

The in-process :class:`repro.serve.JobQueue` forgets everything on restart.
The journal fixes that with the record-every-event discipline: every
submission, every terminal job record and every result-store entry is
appended as one JSON line to a file living beside the cubin cache.  A
restarted server :meth:`replays <JobJournal.replay>` the file into a
consistent job map and a warm :class:`~repro.serve.store.ResultStore`, so
``status``/``result`` of completed jobs survive the process and an identical
re-submit resolves instantly without re-running the search.

Entry shapes (one JSON object per line)::

    {"kind": "submitted",  "v": 1, "record": {...JobRecord.as_dict()...},
                           "request": {...submission parameters...}}
    {"kind": "terminal",   "v": 1, "record": {...}, "report": {...summary...}}
    {"kind": "store",      "v": 1, "key": "<§4.2 cache key>", "report": {...}}
    {"kind": "checkpoint", "v": 1, "job_id": "j00001", "state": {...}}
    {"kind": "minted",     "v": 1, "job_id": "j00009"}

``request`` (optional on submits) and ``checkpoint`` entries are what make
in-flight jobs *resumable*: a restarted server re-queues a lost job from its
journaled request and hands the strategy its last exported search state.

Later entries supersede earlier ones for the same job id / store key, which
makes replay a simple left-to-right fold and appends crash-safe: a process
killed mid-write leaves at most one truncated trailing line, which replay
skips with a warning.  :meth:`compact` rewrites the file from live state
(atomically, via a temp file) so superseded and GC'd entries do not grow the
journal forever; when it drops the job with the highest id ever recorded,
a ``minted`` entry keeps that id, so a restarted server never reuses it.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, TextIO

from repro.api.report import JobRecord, RunReport
from repro.utils.logging import get_logger
from repro.utils.serialization import to_json_str

_LOG = get_logger("remote.journal")

#: Journal entry schema version (bump on incompatible shape changes).
JOURNAL_VERSION = 1

#: Default journal filename, placed beside the pool's cubin cache.
JOURNAL_FILENAME = "serve-journal.jsonl"

_JOB_ID = re.compile(r"^j(\d+)$")


@dataclass
class JournalReplay:
    """Everything a restarted server recovers from one journal."""

    #: Latest known record per job id (terminal entries supersede submits),
    #: each marked ``replayed=True``.
    records: dict[str, JobRecord] = field(default_factory=dict)
    #: Finished reports per job id (summary-reconstructed, no artifact).
    reports: dict[str, RunReport] = field(default_factory=dict)
    #: Persisted result-store entries: §4.2 cache key → report.
    store: dict[str, RunReport] = field(default_factory=dict)
    #: Journaled submission parameters per job id (resume inputs).
    requests: dict[str, dict] = field(default_factory=dict)
    #: Latest strategy checkpoint per still-in-flight job id (a terminal
    #: entry for the job drops its checkpoint — nothing left to resume).
    checkpoints: dict[str, dict] = field(default_factory=dict)
    #: Unreadable lines skipped during replay (truncated tail, corruption).
    skipped: int = 0
    #: Total lines scanned.
    lines: int = 0
    #: Highest job number of a ``minted`` entry (0 without one).
    minted: int = 0

    @property
    def max_job_number(self) -> int:
        """Highest numeric job id ever minted; a fresh queue mints ids above
        it so no new job reuses the id of an old one."""
        return max([self.minted, *map(_job_number, self.records)])


class JobJournal:
    """Append-only JSONL journal of serving state, thread-safe.

    A :class:`repro.serve.JobQueue` built with one restores it through
    :meth:`replay` and appends through the ``record_*`` methods; every
    append is flushed so a killed process loses at most the line being
    written.
    """

    def __init__(self, path: str | Path, *, faults=None):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._fh = None
        #: Lines appended since the last compaction (replay counts existing
        #: lines in, so a restarted server keeps compacting on schedule).
        self.appends = 0
        self.compactions = 0
        #: Appends that raised (fault-injected or real I/O errors); the
        #: queue treats journal appends as best-effort, so these surface in
        #: :meth:`stats` instead of failing jobs.
        self.append_failures = 0
        #: Optional :class:`repro.faults.FaultPlan` whose
        #: ``on_journal_append`` fires inside :meth:`_append` (chaos tests).
        self.faults = faults
        #: Highest job number recorded, replayed or compacted so far.
        self.last_job_number = 0

    # ------------------------------------------------------------------
    # Queue-facing hooks (append side)
    # ------------------------------------------------------------------
    def record_submitted(self, record: JobRecord, request: dict | None = None) -> None:
        self._append(_submitted_entry(record, request), record.job_id)

    def record_terminal(self, record: JobRecord, report: RunReport | None) -> None:
        self._append(_terminal_entry(record, report), record.job_id)

    def record_store(self, key: str, report: RunReport) -> None:
        self._append(_store_entry(key, report))

    def record_checkpoint(self, job_id: str, state: dict) -> None:
        """Persist a strategy's latest search-state checkpoint for ``job_id``.

        Latest-wins like every other entry; replay keeps only the newest
        checkpoint per job and drops it once the job turns terminal.
        """
        self._append(_checkpoint_entry(job_id, state))

    def _append(self, payload: dict, job_id: str | None = None) -> None:
        line = to_json_str(payload)
        with self._lock:
            if job_id is not None:
                # Noted even if the write fails: the id is minted either way.
                self.last_job_number = max(self.last_job_number, _job_number(job_id))
            try:
                if self.faults is not None:
                    self.faults.on_journal_append(payload)
                if self._fh is None:
                    self._fh = self._open_for_append()
                self._fh.write(line + "\n")
                self._fh.flush()
            except Exception:
                self.append_failures += 1
                raise
            self.appends += 1

    def _open_for_append(self) -> TextIO:
        """Open the journal for appending, ending a torn last line first.

        A process killed mid-write leaves a fragment with no trailing
        newline.  Appending straight after it would glue the next entry onto
        the fragment, and replay would skip both; ending the fragment keeps
        the loss to the torn entry alone.
        """
        fh = self.path.open("a", encoding="utf8")
        if fh.tell():
            with self.path.open("rb") as tail:
                tail.seek(-1, os.SEEK_END)
                if tail.read(1) != b"\n":
                    fh.write("\n")
        return fh

    # ------------------------------------------------------------------
    # Recovery side
    # ------------------------------------------------------------------
    def replay(self) -> JournalReplay:
        """Fold the journal into the latest-wins serving state.

        Unreadable lines — a truncated tail after a crash, external
        corruption — are skipped with a warning instead of failing recovery;
        ``replay.skipped`` counts them.
        """
        replay = JournalReplay()
        if not self.path.exists():
            return replay
        with self.path.open("r", encoding="utf8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                replay.lines = lineno
                text = raw.strip()
                if not text:
                    continue
                try:
                    self._fold(json.loads(text), replay)
                except Exception as exc:  # noqa: BLE001 - skip-and-warn recovery
                    replay.skipped += 1
                    _LOG.warning(
                        "journal %s line %d unreadable (%s: %s); skipping",
                        self.path, lineno, type(exc).__name__, exc,
                    )
        with self._lock:
            self.appends = replay.lines
            self.last_job_number = max(self.last_job_number, replay.max_job_number)
        _LOG.info(
            "journal replay: %d record(s), %d report(s), %d store entr(ies) "
            "from %d line(s), %d skipped",
            len(replay.records), len(replay.reports), len(replay.store),
            replay.lines, replay.skipped,
        )
        return replay

    @staticmethod
    def _fold(payload: dict, replay: JournalReplay) -> None:
        kind = payload["kind"]
        if kind in ("submitted", "terminal"):
            record = JobRecord.from_dict(payload["record"])
            record = dataclasses.replace(record, replayed=True)
            replay.records[record.job_id] = record
            if isinstance(payload.get("request"), dict):
                replay.requests[record.job_id] = payload["request"]
            if kind == "terminal":
                # Nothing left to resume; the checkpoint is superseded.
                replay.checkpoints.pop(record.job_id, None)
                if payload.get("report") is not None:
                    replay.reports[record.job_id] = RunReport.from_summary(payload["report"])
        elif kind == "store":
            replay.store[payload["key"]] = RunReport.from_summary(payload["report"])
        elif kind == "checkpoint":
            state = payload["state"]
            if isinstance(state, dict):
                replay.checkpoints[payload["job_id"]] = state
        elif kind == "minted":
            replay.minted = max(replay.minted, _job_number(payload["job_id"]))
        else:
            raise ValueError(f"unknown journal entry kind {kind!r}")

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------
    def compact(
        self,
        records: Iterable[tuple[JobRecord, RunReport | None]],
        store: Iterable[tuple[str, RunReport]],
        *,
        resume: dict | None = None,
    ) -> int:
        """Atomically rewrite the journal from live state; returns the line
        count of the compacted file.

        Everything not passed in — superseded entries, GC'd job records,
        evicted store keys — is dropped.  ``resume`` (job id →
        ``{"request", "checkpoint"}``, see
        :meth:`repro.serve.JobQueue.compact`) keeps in-flight jobs resumable
        across the rewrite.  A job number recorded here above every kept
        record's is kept as one ``minted`` entry.  The rewrite goes through a
        temp file and ``os.replace``, so a crash mid-compaction leaves either
        the old or the new journal, never a half-written one.
        """
        records = list(records)
        kept = max((_job_number(record.job_id) for record, _ in records), default=0)
        tmp = self.path.with_name(self.path.name + ".compact")
        written = 0
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None
            self.last_job_number = max(self.last_job_number, kept)
            minted = self.last_job_number if self.last_job_number > kept else None
            with tmp.open("w", encoding="utf8") as fh:
                for payload in _compacted(records, store, resume, minted):
                    fh.write(to_json_str(payload) + "\n")
                    written += 1
            os.replace(tmp, self.path)
            self.appends = 0
            self.compactions += 1
        _LOG.info("journal compacted to %d line(s): %s", written, self.path)
        return written

    # ------------------------------------------------------------------
    # Lifecycle / introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """JSON-able journal counters (part of the ``/metrics`` payload)."""
        return {
            "path": str(self.path),
            "appends_since_compact": self.appends,
            "append_failures": self.append_failures,
            "compactions": self.compactions,
            "size_bytes": self.path.stat().st_size if self.path.exists() else 0,
        }

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None

    def __enter__(self) -> "JobJournal":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def _submitted_entry(record: JobRecord, request: dict | None) -> dict:
    payload = {"kind": "submitted", "v": JOURNAL_VERSION, "record": record.as_dict()}
    if request is not None:
        payload["request"] = request
    return payload


def _terminal_entry(record: JobRecord, report: RunReport | None) -> dict:
    return {
        "kind": "terminal",
        "v": JOURNAL_VERSION,
        "record": record.as_dict(),
        "report": None if report is None else report.summary(),
    }


def _store_entry(key: str, report: RunReport) -> dict:
    return {"kind": "store", "v": JOURNAL_VERSION, "key": key, "report": report.summary()}


def _checkpoint_entry(job_id: str, state: dict) -> dict:
    return {"kind": "checkpoint", "v": JOURNAL_VERSION, "job_id": job_id, "state": state}


def _job_number(job_id: str) -> int:
    """The number of a ``j<digits>`` job id; 0 for any other id."""
    match = _JOB_ID.match(job_id)
    return int(match.group(1)) if match else 0


def _compacted(records, store, resume: dict | None, minted: int | None) -> Iterator[dict]:
    """The entries of a compacted journal: the ``minted`` job number if one
    is given, each job's latest state (with the request and checkpoint that
    keep an in-flight one resumable), then the store."""
    resume = resume or {}
    if minted is not None:
        yield {"kind": "minted", "v": JOURNAL_VERSION, "job_id": f"j{minted:05d}"}
    for record, report in records:
        if record.status.terminal:
            yield _terminal_entry(record, report)
            continue
        saved = resume.get(record.job_id) or {}
        yield _submitted_entry(record, saved.get("request"))
        if saved.get("checkpoint") is not None:
            yield _checkpoint_entry(record.job_id, saved["checkpoint"])
    for key, report in store:
        yield _store_entry(key, report)
