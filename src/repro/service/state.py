"""Shared service state: configuration, cache, job store, job executor.

One :class:`ServiceState` backs every router: the content-keyed
:class:`~repro.service.cache.ResultCache` (persisted as a
``service-cache.jsonl`` stream inside the data directory), the
:class:`~repro.service.jobs.JobStore` ledger under ``data_dir/jobs/``,
and the :class:`~repro.service.jobs.JobWorker` that executes async
sweeps.  A job runs the same per-unit step as an inline request
(:func:`~repro.service.requests.serve_or_run`): each work unit is served
from the cache or run and cached as soon as it completes, its rows are
appended to the job's own single-shard checkpoint file (written here,
in the ordinary shard-log format), and the job's event stream gets a
:class:`~repro.experiments.backends.ShardProgress` observation before
the first unit and after each one.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Any, Dict

from ..experiments.backends import ShardProgress, shard_plans
from ..experiments.design import Experiment
from ..experiments.results import ResultSet
from ..io.shards import ShardLogWriter, load_checkpoint, shard_filename
from .cache import CACHE_FILENAME, ResultCache
from .errors import BadRequestError
from .jobs import JobRecord, JobStore, JobWorker
from .requests import (
    CachedRunOutcome,
    build_experiment,
    run_with_cache,
    serve_or_run,
)

__all__ = ["ServiceConfig", "ServiceState"]


@dataclasses.dataclass(frozen=True)
class ServiceConfig:
    """How one service instance runs.

    ``inline_threshold`` is the receiver-round budget (see
    :func:`repro.service.requests.run_cost`) under which a simulate/sweep
    request runs synchronously in the request; anything costlier becomes
    an async job.  ``threaded_worker=False`` queues jobs until
    :meth:`ServiceState.run_pending_jobs` drains them (tests).
    """

    data_dir: str
    inline_threshold: int = 100_000
    threaded_worker: bool = True


class ServiceState:
    """The cache, job ledger, and worker shared by all routers."""

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        root = Path(config.data_dir)
        root.mkdir(parents=True, exist_ok=True)
        self.cache = ResultCache(root / CACHE_FILENAME)
        self.jobs = JobStore(root / "jobs")
        self.worker = JobWorker(
            self.jobs, self._execute_job, threaded=config.threaded_worker
        )

    # -- async jobs --------------------------------------------------------------

    def submit_job(self, request: Dict[str, Any]) -> JobRecord:
        """Ledger a validated simulate/sweep request and queue it."""
        record = self.jobs.submit(request)
        self.worker.submit(record.job_id)
        return record

    def run_pending_jobs(self) -> int:
        """Drain queued jobs synchronously (only meaningful in test mode)."""
        return self.worker.run_pending()

    def _execute_job(self, job_id: str) -> Dict[str, Any]:
        """Run one ledgered sweep; the default :class:`JobWorker` executor.

        Every work unit goes through :func:`serve_or_run` and its rows
        are appended to the job's checkpoint file as it completes, so
        the results stay addressable by job id however many of them the
        cache served.
        """
        record = self.jobs.get(job_id)
        experiment = build_experiment(record.request, default_name=job_id)
        plan = shard_plans(experiment, 1)[0]
        path = self.jobs.job_dir(job_id) / shard_filename(0, 1)
        done = rows = 0
        from_cache = True

        def note_progress() -> None:
            progress = ShardProgress(
                variants_done=done,
                variants_total=len(plan.runs),
                rows_committed=rows,
                rows_appended=rows,
            )
            self.jobs.mark_progress(job_id, dataclasses.asdict(progress))

        with ShardLogWriter(path, plan.header()) as writer:
            note_progress()
            for run in plan.runs:
                unit_rows, served = serve_or_run(self.cache, run)
                writer.append(unit_rows)
                done += 1
                rows += len(unit_rows)
                from_cache = from_cache and served
                note_progress()
        return {
            "experiment": experiment.name,
            "rows": rows,
            "from_cache": from_cache,
        }

    # -- results -----------------------------------------------------------------

    def load_job_result(self, job_id: str) -> ResultSet:
        """The merged, canonical result set of one completed job."""
        record = self.jobs.get(job_id)
        if record.status != "done":
            raise BadRequestError(
                f"job {job_id!r} is {record.status!r}, not done",
                job=job_id,
                status=record.status,
            )
        entries = load_checkpoint(self.jobs.job_dir(job_id))
        rows = [
            row
            for _, header, shard_rows in entries
            if header is not None
            for row in shard_rows
        ]
        experiment = str(record.summary.get("experiment", job_id))
        seed = record.request.get("seed", 0)
        return ResultSet.merge(
            ResultSet(experiment=experiment, rows=rows, seed=seed)
        )

    # -- inline execution (routers call through for shared accounting) -----------

    def run_inline(self, experiment: Experiment) -> CachedRunOutcome:
        return run_with_cache(self.cache, experiment)

    # -- lifecycle ---------------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        return {"cache": self.cache.stats(), "jobs": self.jobs.stats()}

    def close(self) -> None:
        self.worker.close()
        self.jobs.close()
        self.cache.close()
