"""Job management: the durable queue between HTTP clients and campaigns.

A *job* is one campaign spec submitted to the service.  Jobs are
content-addressed — the job id **is** the spec hash — which makes
submission idempotent for free: resubmitting a spec returns the existing
job (whatever state it is in) instead of recomputing, and a journal left
on disk by a previous service process (or by ``repro campaign run``
pointed at the same directory) is simply resumed, because the journal
file name is derived from the same hash.

:class:`JobManager` owns:

* the **lanes** — bounded FIFO queues per priority (``high`` /
  ``normal`` / ``low``), drained strictly in that order, with a global
  queue bound and a per-client quota on live (queued + running) jobs;
* the **dispatcher** — an asyncio task that starts up to ``max_running``
  campaigns concurrently, each executed in a worker thread so the
  (blocking, possibly forking) :class:`~repro.campaign.CampaignRunner`
  never stalls the event loop;
* **restart recovery** — :meth:`recover` re-scans the journal directory,
  turning merged journals back into DONE jobs (reports are re-merged on
  demand) and unfinished ones into queued resumes.

Cancellation is cooperative: a queued job is dropped immediately; a
running one has its cancel event polled by the runner's ``stop_check``
between items, after which the job parks as CANCELLED with its journal
intact, ready for :meth:`resume_job`.
"""

from __future__ import annotations

import asyncio
import glob
import os
import threading
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from ..campaign import (
    CampaignCancelled,
    CampaignError,
    CampaignRunner,
    CampaignSpec,
    CampaignWarmState,
    JournalState,
    knowledge_sidecar_path,
    merge_campaign,
)
from ..clock import monotonic, wall
from ..knowledge import save_knowledge
from ..telemetry import NULL_RECORDER, Recorder, RunReport
from .http import ServiceError

#: Dispatch order: a queued high job always starts before a normal one.
PRIORITIES = ("high", "normal", "low")

#: Job lifecycle states.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

TERMINAL_STATES = frozenset({DONE, FAILED, CANCELLED})


class Job:
    """One submitted campaign and everything the API exposes about it."""

    def __init__(
        self,
        job_id: str,
        spec: CampaignSpec,
        journal_path: str,
        report_path: str,
        client: str = "anon",
        priority: str = "normal",
    ):
        self.job_id = job_id
        self.spec = spec
        self.journal_path = journal_path
        self.report_path = report_path
        self.client = client
        self.priority = priority
        self.state = QUEUED
        self.error: Optional[str] = None
        #: the merged summary dict once the campaign completed
        self.summary: Optional[Dict[str, Any]] = None
        self.submitted_ts: float = 0.0
        self.started_ts: Optional[float] = None
        self.finished_ts: Optional[float] = None
        #: cooperative cancel flag, polled by the runner between items
        self.cancel_event = threading.Event()

    def to_dict(self) -> Dict[str, Any]:
        return {
            "job": self.job_id,
            "name": self.spec.name,
            "spec_hash": self.job_id,
            "circuits": list(self.spec.circuits),
            "client": self.client,
            "priority": self.priority,
            "state": self.state,
            "error": self.error,
            "summary": self.summary,
            "submitted_ts": round(self.submitted_ts, 3),
            "started_ts": (
                round(self.started_ts, 3) if self.started_ts else None
            ),
            "finished_ts": (
                round(self.finished_ts, 3) if self.finished_ts else None
            ),
        }


class JobManager:
    """Bounded, fair, restart-surviving dispatch of campaigns.

    Args:
        root: service state directory — journals (``<spec_hash>.jsonl``),
            reports, knowledge sidecars, ``uploads/``, and ``policies/``
            (content-addressed ``repro-policy/v2`` artifacts) live here.
        max_running: campaigns executed concurrently.
        max_queue: total queued jobs across all lanes; submissions past
            it are rejected with 429.
        client_quota: live (queued + running) jobs allowed per client.
        workers_per_job: campaign worker processes per job (1 = inline).
        telemetry: service-level counters/gauges recorder.
        poll_interval: SSE tail poll period, seconds.
    """

    def __init__(
        self,
        root: str,
        max_running: int = 2,
        max_queue: int = 256,
        client_quota: int = 16,
        workers_per_job: int = 1,
        telemetry: Recorder = NULL_RECORDER,
        poll_interval: float = 0.05,
    ):
        self.root = root
        self.uploads_dir = os.path.join(root, "uploads")
        os.makedirs(self.uploads_dir, exist_ok=True)
        self.policies_dir = os.path.join(root, "policies")
        os.makedirs(self.policies_dir, exist_ok=True)
        self.max_running = max(1, int(max_running))
        self.max_queue = max(1, int(max_queue))
        self.client_quota = max(1, int(client_quota))
        self.workers_per_job = max(1, int(workers_per_job))
        self.telemetry = telemetry
        self.poll_interval = poll_interval
        self.jobs: Dict[str, Job] = {}
        self._lanes: Dict[str, Deque[Job]] = {
            priority: deque() for priority in PRIORITIES
        }
        self._running_count = 0
        self._wake: Optional[asyncio.Event] = None
        self._dispatcher: Optional[asyncio.Task] = None
        self._stopping = False

    # -- paths ---------------------------------------------------------
    def journal_path(self, job_id: str) -> str:
        return os.path.join(self.root, f"{job_id}.jsonl")

    def report_path(self, job_id: str) -> str:
        return os.path.join(self.root, f"{job_id}.report.json")

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> None:
        """Recover persisted jobs and start the dispatch loop."""
        self._wake = asyncio.Event()
        self.recover()
        self._dispatcher = asyncio.get_running_loop().create_task(
            self._dispatch_loop()
        )

    async def stop(self) -> None:
        """Stop dispatching; running campaigns are cancelled cooperatively."""
        self._stopping = True
        for job in self.jobs.values():
            if job.state == RUNNING:
                job.cancel_event.set()
        if self._dispatcher is not None:
            self._kick()
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except asyncio.CancelledError:
                pass
            self._dispatcher = None

    def recover(self) -> None:
        """Rebuild the job table from the journal directory.

        Journals whose campaign merged come back as DONE jobs; anything
        unfinished is queued for resume.  Unreadable journals (foreign
        schema, torn beyond the header) are skipped and counted — a bad
        file must not prevent the service from starting.
        """
        for path in sorted(glob.glob(os.path.join(self.root, "*.jsonl"))):
            job_id = os.path.splitext(os.path.basename(path))[0]
            if job_id in self.jobs:
                continue
            try:
                state = JournalState.replay(path)
                spec = CampaignSpec.from_dict(state.spec_data)
            except (CampaignError, OSError):
                self.telemetry.count("service.jobs.unreadable")
                continue
            job = Job(
                job_id,
                spec,
                journal_path=path,
                report_path=self.report_path(job_id),
            )
            job.submitted_ts = wall()
            self.jobs[job_id] = job
            self.telemetry.count("service.jobs.recovered")
            if state.merged is not None:
                job.state = DONE
                job.summary = state.merged
            else:
                self._enqueue(job)

    # -- submission ----------------------------------------------------
    def submit(
        self,
        spec: CampaignSpec,
        client: str = "anon",
        priority: str = "normal",
    ) -> Tuple[Job, bool]:
        """Submit a spec; returns ``(job, created)``.

        Idempotent by spec hash: an identical spec — whatever its job's
        state — returns the existing job with ``created=False`` and
        consumes no quota.
        """
        if priority not in PRIORITIES:
            raise ServiceError(
                400, f"priority must be one of {', '.join(PRIORITIES)}"
            )
        job_id = spec.spec_hash()
        existing = self.jobs.get(job_id)
        if existing is not None:
            self.telemetry.count("service.jobs.deduped")
            return existing, False
        if sum(len(lane) for lane in self._lanes.values()) >= self.max_queue:
            self.telemetry.count("service.jobs.rejected")
            raise ServiceError(429, "job queue is full — retry later")
        live = sum(
            1
            for job in self.jobs.values()
            if job.client == client and job.state in (QUEUED, RUNNING)
        )
        if live >= self.client_quota:
            self.telemetry.count("service.jobs.rejected")
            raise ServiceError(
                429,
                f"client {client!r} already has {live} live jobs "
                f"(quota {self.client_quota})",
            )
        job = Job(
            job_id,
            spec,
            journal_path=self.journal_path(job_id),
            report_path=self.report_path(job_id),
            client=client,
            priority=priority,
        )
        job.submitted_ts = wall()
        self.jobs[job_id] = job
        self.telemetry.count("service.jobs.submitted")
        self._enqueue(job)
        return job, True

    def get(self, job_id: str) -> Job:
        job = self.jobs.get(job_id)
        if job is None:
            raise ServiceError(404, f"no job {job_id}")
        return job

    # -- cancel / resume -----------------------------------------------
    def cancel(self, job_id: str) -> Job:
        """Cancel a queued job now, or a running one cooperatively."""
        job = self.get(job_id)
        if job.state == QUEUED:
            try:
                self._lanes[job.priority].remove(job)
            except ValueError:
                pass
            job.state = CANCELLED
            job.finished_ts = wall()
            self.telemetry.count("service.jobs.cancelled")
        elif job.state == RUNNING:
            job.cancel_event.set()  # the runner raises at its next check
        else:
            raise ServiceError(
                409, f"job {job_id} is already {job.state}"
            )
        return job

    def resume_job(self, job_id: str) -> Job:
        """Requeue a cancelled or failed job; its journal carries on."""
        job = self.get(job_id)
        if job.state not in (CANCELLED, FAILED):
            raise ServiceError(
                409,
                f"job {job_id} is {job.state}; only cancelled or failed "
                "jobs can be resumed",
            )
        job.cancel_event.clear()
        job.error = None
        job.state = QUEUED
        self.telemetry.count("service.jobs.resumed")
        self._enqueue(job)
        return job

    # -- queue internals -----------------------------------------------
    def _enqueue(self, job: Job) -> None:
        job.state = QUEUED
        self._lanes[job.priority].append(job)
        self._record_depth()
        self._kick()

    def _next_job(self) -> Optional[Job]:
        for priority in PRIORITIES:
            lane = self._lanes[priority]
            if lane:
                return lane.popleft()
        return None

    def queue_depth(self) -> int:
        return sum(len(lane) for lane in self._lanes.values())

    def _record_depth(self) -> None:
        self.telemetry.gauge("service.queue.depth", self.queue_depth())
        self.telemetry.gauge("service.jobs.running", self._running_count)

    def _kick(self) -> None:
        if self._wake is not None:
            self._wake.set()

    # -- dispatch ------------------------------------------------------
    async def _dispatch_loop(self) -> None:
        assert self._wake is not None
        while not self._stopping:
            while self._running_count < self.max_running:
                job = self._next_job()
                if job is None:
                    break
                self._running_count += 1
                self._record_depth()
                asyncio.get_running_loop().create_task(self._run_job(job))
            self._wake.clear()
            await self._wake.wait()

    async def _run_job(self, job: Job) -> None:
        job.state = RUNNING
        job.started_ts = wall()
        queued_s = max(0.0, job.started_ts - job.submitted_ts)
        self.telemetry.observe("service.jobs.queued_s", queued_s)
        t0 = monotonic()
        try:
            summary = await asyncio.get_running_loop().run_in_executor(
                None, self._execute, job
            )
        except CampaignCancelled:
            job.state = CANCELLED
            self.telemetry.count("service.jobs.cancelled")
        except Exception as exc:  # noqa: BLE001 — park the job as failed
            job.error = f"{type(exc).__name__}: {exc}"
            job.state = FAILED
            self.telemetry.count("service.jobs.failed")
        else:
            job.summary = summary
            job.state = DONE
            self.telemetry.count("service.jobs.completed")
            self.telemetry.observe("service.jobs.run_s", monotonic() - t0)
        finally:
            job.finished_ts = wall()
            self._running_count -= 1
            self._record_depth()
            self._kick()

    def _execute(self, job: Job) -> Dict[str, Any]:
        """Run one campaign to completion (worker thread)."""
        runner = CampaignRunner(
            job.spec,
            job.journal_path,
            workers=self.workers_per_job,
            stop_check=job.cancel_event.is_set,
        )
        resume = (
            os.path.exists(job.journal_path)
            and os.path.getsize(job.journal_path) > 0
        )
        result = runner.run(resume=resume)
        if result.report is not None:
            result.report.save(job.report_path)
        return result.summary_dict()

    # -- results -------------------------------------------------------
    def report_of(self, job_id: str) -> Dict[str, Any]:
        """The job's merged ``repro-run-report/v1`` document.

        Re-merged from the journal when the report file is missing —
        e.g. the campaign merged under a previous service process that
        died before writing the report.
        """
        job = self.get(job_id)
        if os.path.exists(job.report_path):
            return RunReport.load(job.report_path).to_dict()
        if job.state != DONE:
            raise ServiceError(
                409, f"job {job_id} is {job.state}; no report yet"
            )
        result = self._remerge(job)
        if result.report is None:
            raise ServiceError(404, f"job {job_id} produced no report")
        return result.report.to_dict()

    def _remerge(self, job: Job):
        state = JournalState.replay(job.journal_path)
        try:
            warm = CampaignWarmState.build(job.spec)
        except (CampaignError, OSError) as exc:  # e.g. a deleted input
            raise ServiceError(
                409, f"job {job.job_id}: cannot re-merge its report: {exc}"
            ) from None
        result = merge_campaign(job.spec, dict(state.done), warm)
        if result.report is not None:
            result.report.save(job.report_path)
        if job.spec.knowledge and result.knowledge:
            path = knowledge_sidecar_path(job.journal_path)
            if not os.path.exists(path):
                save_knowledge(result.knowledge, path)
        return result

    def knowledge_of(self, job_id: str) -> str:
        """Path of the job's knowledge sidecar (404 when absent)."""
        path = knowledge_sidecar_path(self.get(job_id).journal_path)
        if not os.path.exists(path):
            raise ServiceError(
                404, f"job {job_id} has no knowledge sidecar"
            )
        return path

    def progress_of(self, job_id: str) -> Optional[Dict[str, Any]]:
        """Live campaign progress from the journal, or None pre-start."""
        job = self.get(job_id)
        try:
            return CampaignRunner.status(job.journal_path)
        except (CampaignError, OSError):
            return None

    # -- stats ---------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        states: Dict[str, int] = {}
        for job in self.jobs.values():
            states[job.state] = states.get(job.state, 0) + 1
        payload: Dict[str, Any] = {
            "jobs": len(self.jobs),
            "states": states,
            "queue_depth": self.queue_depth(),
            "running": self._running_count,
            "max_running": self.max_running,
            "max_queue": self.max_queue,
            "client_quota": self.client_quota,
        }
        registry = getattr(self.telemetry, "registry", None)
        if registry is not None:
            payload["metrics"] = registry.to_dict()
        return payload
