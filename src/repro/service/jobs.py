"""Async job ledger and worker: append-only state, crash-visible restarts.

Every job the service accepts gets its own directory holding two kinds of
append-only streams: a ``service-events.jsonl`` state ledger (one
:class:`~repro.io.eventlog.EventLogWriter` line per transition —
``submitted`` / ``running`` / ``progress`` / ``done`` / ``failed``) and
the job's single-shard checkpoint file, in the ordinary shard-log format,
which the service appends each work unit's rows to as the unit is served
from the result cache or run (see :mod:`repro.service.state`).  Nothing
is ever rewritten: a server killed mid-job leaves a recoverable prefix.
Every appended event is folded into the job's in-memory record by the
same step that replays a ledger on restart, so a live job and its
replay read identically; on restart :class:`JobStore` also appends an
explicit ``interrupted`` event to any job the crash caught mid-flight,
surfacing the restart in the job's event stream instead of hiding it —
the same discipline as the shard checkpoints themselves.  The
``service-`` file-name prefix is registered in
:data:`repro.io.shards.TELEMETRY_PREFIXES`, so checkpoint loaders never
mistake a ledger for a row checkpoint (and the wall-clock stamps these
telemetry streams carry stay out of result identity).

:class:`JobWorker` drains submitted jobs through an injectable executor
on one daemon thread (or synchronously via :meth:`JobWorker.run_pending`
for deterministic tests); an executor that raises marks the job
``failed`` with the error recorded in the stream, never unwinding the
server.
"""

from __future__ import annotations

import dataclasses
import queue
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Union

from ..io.eventlog import EventLogWriter, read_events
from .errors import NotFoundError

__all__ = [
    "JOB_EVENTS_FILENAME",
    "JOB_STATES",
    "JobRecord",
    "JobStore",
    "JobWorker",
]

PathLike = Union[str, Path]

#: Each job's state ledger, inside its own directory (``service-`` prefix:
#: a telemetry stream, never a row checkpoint).
JOB_EVENTS_FILENAME = "service-events.jsonl"

#: The states a job's ledger can fold to.
JOB_STATES = ("submitted", "running", "done", "failed")


@dataclasses.dataclass
class JobRecord:
    """The in-memory fold of one job's event ledger."""

    job_id: str
    status: str
    request: Dict[str, Any]
    submitted_at: Optional[float] = None
    updated_at: Optional[float] = None
    progress: Dict[str, Any] = dataclasses.field(default_factory=dict)
    summary: Dict[str, Any] = dataclasses.field(default_factory=dict)
    error: Optional[str] = None

    def describe(self) -> Dict[str, Any]:
        """The JSON view of this job served by the jobs endpoints."""
        return {
            "job_id": self.job_id,
            "status": self.status,
            "request": dict(self.request),
            "submitted_at": self.submitted_at,
            "updated_at": self.updated_at,
            "progress": dict(self.progress),
            "summary": dict(self.summary),
            "error": self.error,
        }


def _apply_event(
    record: Optional[JobRecord], job_id: str, event: Mapping[str, Any]
) -> Optional[JobRecord]:
    """Fold one ledger event into a job's record (``None`` until submitted).

    The one transition function: live appends and restart replays both
    go through it, so a job reads the same before and after a restart.
    """
    kind = event.get("event")
    stamp = event.get("time")
    if kind == "submitted":
        return JobRecord(
            job_id=job_id,
            status="submitted",
            request=dict(event.get("request", {})),
            submitted_at=stamp,
            updated_at=stamp,
        )
    if record is None:
        return None  # a ledger must open with its submission
    record.updated_at = stamp
    if kind == "running":
        record.status = "running"
    elif kind == "progress":
        record.progress = dict(event.get("progress", {}))
    elif kind == "done":
        record.status = "done"
        record.summary = dict(event.get("summary", {}))
    elif kind in ("failed", "interrupted"):
        record.status = "failed"
        record.error = str(event.get("error", kind))
    return record


class JobStore:
    """Append-only, restart-recovering ledger of every job and its files."""

    def __init__(self, root: PathLike) -> None:
        self._root = Path(root)
        self._root.mkdir(parents=True, exist_ok=True)
        self._lock = threading.RLock()
        self._records: Dict[str, JobRecord] = {}
        self._writers: Dict[str, EventLogWriter] = {}
        self._recover()

    # -- recovery ----------------------------------------------------------------

    def _recover(self) -> None:
        """Replay every ledger; jobs the last process died holding get an
        explicit ``interrupted`` event appended (the restart is evidence,
        not something to paper over)."""
        for path in sorted(self._root.glob("*/" + JOB_EVENTS_FILENAME)):
            job_id = path.parent.name
            record: Optional[JobRecord] = None
            for event in read_events(path):
                record = _apply_event(record, job_id, event)
            if record is None:
                continue
            self._records[job_id] = record
            if record.status in ("submitted", "running"):
                self._append(
                    job_id,
                    {
                        "event": "interrupted",
                        "error": "server restarted while the job was in flight",
                    },
                )

    # -- internals ---------------------------------------------------------------

    def _writer(self, job_id: str) -> EventLogWriter:
        if job_id not in self._writers:
            self._writers[job_id] = EventLogWriter(
                self._root / job_id / JOB_EVENTS_FILENAME
            )
        return self._writers[job_id]

    def _append(self, job_id: str, event: Mapping[str, Any]) -> JobRecord:
        """Commit one event to the job's ledger and fold it into its record."""
        committed = self._writer(job_id).append(
            {"job": job_id, "time": time.time(), **dict(event)}
        )
        record = _apply_event(self._records.get(job_id), job_id, committed)
        assert record is not None  # every ledger opens with its submission
        self._records[job_id] = record
        return record

    def _record(self, job_id: str) -> JobRecord:
        if job_id not in self._records:
            raise NotFoundError(f"unknown job {job_id!r}", job=job_id)
        return self._records[job_id]

    # -- submission and transitions ----------------------------------------------

    def submit(self, request: Mapping[str, Any]) -> JobRecord:
        """Open a new job ledger with its ``submitted`` event."""
        with self._lock:
            indices = [
                int(job_id.rsplit("-", 1)[1])
                for job_id in self._records
                if job_id.rsplit("-", 1)[-1].isdigit()
            ]
            job_id = f"job-{max(indices, default=0) + 1:04d}"
            (self._root / job_id).mkdir(parents=True, exist_ok=True)
            return self._append(
                job_id, {"event": "submitted", "request": dict(request)}
            )

    def _transition(self, job_id: str, event: Mapping[str, Any]) -> None:
        with self._lock:
            self._record(job_id)  # 404 before touching the filesystem
            self._append(job_id, event)

    def mark_running(self, job_id: str) -> None:
        self._transition(job_id, {"event": "running"})

    def mark_progress(self, job_id: str, progress: Mapping[str, Any]) -> None:
        self._transition(job_id, {"event": "progress", "progress": dict(progress)})

    def mark_done(self, job_id: str, summary: Mapping[str, Any]) -> None:
        self._transition(job_id, {"event": "done", "summary": dict(summary)})

    def mark_failed(self, job_id: str, error: str) -> None:
        self._transition(job_id, {"event": "failed", "error": error})

    # -- queries -----------------------------------------------------------------

    def get(self, job_id: str) -> JobRecord:
        with self._lock:
            return self._record(job_id)

    def list_jobs(self) -> List[Dict[str, Any]]:
        with self._lock:
            return [
                self._records[job_id].describe()
                for job_id in sorted(self._records)
            ]

    def events(self, job_id: str) -> List[Dict[str, Any]]:
        """The committed event stream of one job, oldest first."""
        with self._lock:
            self._record(job_id)  # 404 before touching the filesystem
        return read_events(self._root / job_id / JOB_EVENTS_FILENAME)

    def job_dir(self, job_id: str) -> Path:
        """The directory holding one job's ledger and checkpoint files."""
        with self._lock:
            self._record(job_id)
        return self._root / job_id

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            by_status: Dict[str, int] = {}
            for record in self._records.values():
                by_status[record.status] = by_status.get(record.status, 0) + 1
            return {"jobs": len(self._records), "by_status": by_status}

    def close(self) -> None:
        with self._lock:
            for writer in self._writers.values():
                writer.close()
            self._writers.clear()


#: A job executor: runs one job to completion, returning the ``done``
#: summary; raising marks the job failed with the error in its stream.
JobExecutor = Callable[[str], Dict[str, Any]]


class JobWorker:
    """One worker draining submitted jobs through an executor.

    ``threaded=True`` (the server default) runs jobs on a daemon thread
    as they arrive; ``threaded=False`` queues them until a caller drains
    the queue with :meth:`run_pending` — the deterministic mode the WSGI
    tests drive, no real concurrency involved.
    """

    def __init__(
        self,
        store: JobStore,
        executor: JobExecutor,
        threaded: bool = True,
    ) -> None:
        self._store = store
        self._executor = executor
        self._threaded = threaded
        self._queue: "queue.Queue[Optional[str]]" = queue.Queue()
        self._thread: Optional[threading.Thread] = None
        if threaded:
            self._thread = threading.Thread(
                target=self._loop, name="repro-service-jobs", daemon=True
            )
            self._thread.start()

    def submit(self, job_id: str) -> None:
        self._queue.put(job_id)

    def run_pending(self) -> int:
        """Drain queued jobs synchronously (test mode); returns the count."""
        drained = 0
        while True:
            try:
                job_id = self._queue.get_nowait()
            except queue.Empty:
                return drained
            if job_id is None:
                return drained
            self._run_one(job_id)
            drained += 1

    def _loop(self) -> None:
        while True:
            job_id = self._queue.get()
            if job_id is None:
                return
            self._run_one(job_id)

    def _run_one(self, job_id: str) -> None:
        self._store.mark_running(job_id)
        try:
            summary = self._executor(job_id)
        except Exception as error:  # the job isolation boundary
            self._store.mark_failed(job_id, f"{type(error).__name__}: {error}")
        else:
            self._store.mark_done(job_id, summary)

    def close(self) -> None:
        if self._thread is not None:
            self._queue.put(None)
            self._thread.join(timeout=5.0)
            self._thread = None
