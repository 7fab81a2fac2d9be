"""JobManager: queue policy, lifecycle, cancellation, restart recovery."""

import asyncio
import json
import os

import pytest

from repro.campaign import CampaignRunner, CampaignSpec, Journal
from repro.service import (
    CANCELLED,
    DONE,
    JobManager,
    QUEUED,
    RUNNING,
    ServiceError,
)
from repro.telemetry import TelemetryRecorder


def drill_spec(**overrides):
    """A drill-mode spec: orchestration only, no real ATPG."""
    base = dict(circuits=("s27",), name="jobs-test", seed=1, shard_size=8,
                fault_limit=8, synthetic_item_seconds=0.001)
    base.update(overrides)
    return CampaignSpec(**base)


async def wait_for(job, states, timeout=30.0):
    for _ in range(int(timeout / 0.01)):
        if job.state in states:
            return job
        await asyncio.sleep(0.01)
    raise AssertionError(f"job stuck in {job.state}")


class TestQueuePolicy:
    """Submission rules, checked without a running dispatcher."""

    def manager(self, tmp_path, **kwargs):
        return JobManager(str(tmp_path), **kwargs)

    def test_submit_is_idempotent_by_spec_hash(self, tmp_path):
        manager = self.manager(tmp_path)
        job, created = manager.submit(drill_spec())
        again, created2 = manager.submit(drill_spec())
        assert created and not created2
        assert again is job
        assert job.job_id == drill_spec().spec_hash()

    def test_dedup_ignores_client_and_priority(self, tmp_path):
        manager = self.manager(tmp_path)
        job, _ = manager.submit(drill_spec(), client="a", priority="low")
        again, created = manager.submit(
            drill_spec(), client="b", priority="high"
        )
        assert not created and again.client == "a"

    def test_unknown_priority_rejected(self, tmp_path):
        with pytest.raises(ServiceError) as exc:
            self.manager(tmp_path).submit(drill_spec(), priority="urgent")
        assert exc.value.status == 400

    def test_full_queue_rejected_with_429(self, tmp_path):
        manager = self.manager(tmp_path, max_queue=2)
        manager.submit(drill_spec(seed=1))
        manager.submit(drill_spec(seed=2))
        with pytest.raises(ServiceError) as exc:
            manager.submit(drill_spec(seed=3))
        assert exc.value.status == 429

    def test_client_quota_counts_live_jobs_only(self, tmp_path):
        manager = self.manager(tmp_path, client_quota=2)
        manager.submit(drill_spec(seed=1), client="greedy")
        manager.submit(drill_spec(seed=2), client="greedy")
        with pytest.raises(ServiceError) as exc:
            manager.submit(drill_spec(seed=3), client="greedy")
        assert exc.value.status == 429
        # other clients are unaffected
        manager.submit(drill_spec(seed=3), client="polite")

    def test_priority_lanes_drain_high_first(self, tmp_path):
        manager = self.manager(tmp_path)
        manager.submit(drill_spec(seed=1), priority="low")
        manager.submit(drill_spec(seed=2), priority="normal")
        high, _ = manager.submit(drill_spec(seed=3), priority="high")
        assert manager._next_job() is high
        assert manager._next_job().priority == "normal"
        assert manager._next_job().priority == "low"
        assert manager._next_job() is None

    def test_cancel_queued_job_immediately(self, tmp_path):
        manager = self.manager(tmp_path)
        job, _ = manager.submit(drill_spec())
        assert manager.cancel(job.job_id).state == CANCELLED
        assert manager.queue_depth() == 0
        with pytest.raises(ServiceError) as exc:
            manager.cancel(job.job_id)  # already terminal
        assert exc.value.status == 409

    def test_resume_requeues_only_terminal_failures(self, tmp_path):
        manager = self.manager(tmp_path)
        job, _ = manager.submit(drill_spec())
        with pytest.raises(ServiceError) as exc:
            manager.resume_job(job.job_id)  # still queued
        assert exc.value.status == 409
        manager.cancel(job.job_id)
        assert manager.resume_job(job.job_id).state == QUEUED

    def test_unknown_job_is_404(self, tmp_path):
        with pytest.raises(ServiceError) as exc:
            self.manager(tmp_path).get("feedfacecafebeef")
        assert exc.value.status == 404


class TestExecution:
    def test_drill_job_runs_to_done(self, tmp_path):
        async def scenario():
            manager = JobManager(
                str(tmp_path), telemetry=TelemetryRecorder()
            )
            await manager.start()
            try:
                job, _ = manager.submit(drill_spec())
                await wait_for(job, {DONE})
                assert job.summary["items_done"] > 0
                assert job.summary["items_failed"] == 0
                assert job.finished_ts >= job.started_ts >= job.submitted_ts
                stats = manager.stats()
                assert stats["states"] == {DONE: 1}
                counters = stats["metrics"]["counters"]
                assert counters["service.jobs.completed"] == 1
            finally:
                await manager.stop()

        asyncio.run(scenario())

    def test_running_job_cancels_then_resumes_to_done(self, tmp_path):
        async def scenario():
            manager = JobManager(str(tmp_path))
            await manager.start()
            try:
                # slow items so cancel lands mid-run
                job, _ = manager.submit(
                    drill_spec(shard_size=1, synthetic_item_seconds=0.05)
                )
                await wait_for(job, {RUNNING})
                manager.cancel(job.job_id)
                await wait_for(job, {CANCELLED})
                assert job.cancel_event.is_set()
                manager.resume_job(job.job_id)
                await wait_for(job, {DONE})
                assert job.summary["items_failed"] == 0
            finally:
                await manager.stop()

        asyncio.run(scenario())

    def test_failed_job_parks_with_error(self, tmp_path):
        async def scenario():
            manager = JobManager(str(tmp_path))
            await manager.start()
            try:
                job, _ = manager.submit(
                    drill_spec(circuits=("no-such-circuit",))
                )
                await wait_for(job, {"failed"})
                assert job.error
            finally:
                await manager.stop()

        asyncio.run(scenario())


class TestRecovery:
    def test_completed_journal_recovers_as_done(self, tmp_path):
        spec = drill_spec()
        job_id = spec.spec_hash()
        journal = str(tmp_path / f"{job_id}.jsonl")
        CampaignRunner(spec, journal).run()

        manager = JobManager(str(tmp_path))
        manager.recover()
        job = manager.get(job_id)
        assert job.state == DONE
        assert job.summary["fault_coverage"] == 0.0  # drill: nothing graded
        # resubmitting the same spec dedups against the recovered job
        again, created = manager.submit(spec)
        assert not created and again is job

    def test_missing_report_is_re_merged_from_the_journal(self, tmp_path):
        spec = CampaignSpec(circuits=("s27",), name="remerge", seed=3,
                            shard_size=4, fault_limit=8, passes=1)
        result = CampaignRunner(
            spec, str(tmp_path / f"{spec.spec_hash()}.jsonl")
        ).run()
        manager = JobManager(str(tmp_path))
        manager.recover()
        job = manager.get(spec.spec_hash())
        assert job.state == DONE and not os.path.exists(job.report_path)
        report = manager.report_of(job.job_id)
        assert report["detected"] == result.report.detected > 0
        assert report["vectors"] == result.report.vectors
        assert os.path.exists(job.report_path)

    def test_unfinished_journal_recovers_as_queued_resume(self, tmp_path):
        spec = drill_spec()
        job_id = spec.spec_hash()
        path = tmp_path / f"{job_id}.jsonl"
        with Journal(str(path)) as journal:
            journal.append({
                "type": "campaign",
                "schema": "repro-campaign-journal/v1",
                "name": spec.name, "spec": spec.to_dict(),
                "spec_hash": job_id, "items": 1,
            })
        manager = JobManager(str(tmp_path))
        manager.recover()
        job = manager.get(job_id)
        assert job.state == QUEUED
        assert manager.queue_depth() == 1

    def test_recovered_resume_completes(self, tmp_path):
        async def scenario():
            spec = drill_spec()
            job_id = spec.spec_hash()
            path = tmp_path / f"{job_id}.jsonl"
            with Journal(str(path)) as journal:
                journal.append({
                    "type": "campaign",
                    "schema": "repro-campaign-journal/v1",
                    "name": spec.name, "spec": spec.to_dict(),
                    "spec_hash": job_id, "items": 1,
                })
            manager = JobManager(str(tmp_path))
            await manager.start()
            try:
                job = manager.get(job_id)
                await wait_for(job, {DONE})
                assert job.summary["items_done"] > 0
                assert job.summary["items_failed"] == 0
            finally:
                await manager.stop()

        asyncio.run(scenario())

    def test_unreadable_journal_is_skipped_not_fatal(self, tmp_path):
        (tmp_path / "deadbeef00000000.jsonl").write_text("not json\n")
        telemetry = TelemetryRecorder()
        manager = JobManager(str(tmp_path), telemetry=telemetry)
        manager.recover()
        assert manager.jobs == {}
        assert telemetry.value("service.jobs.unreadable") == 1

    def test_journal_naming_removed_knob_is_skipped(self, tmp_path):
        # a journal written with the deleted live-broadcast knob on: its
        # spec no longer parses, so recovery skips it and the service
        # still starts
        spec = drill_spec()
        header_spec = dict(spec.to_dict(), knowledge_broadcast=True)
        with Journal(str(tmp_path / "0123456789abcdef.jsonl")) as journal:
            journal.append({
                "type": "campaign",
                "schema": "repro-campaign-journal/v1",
                "name": spec.name, "spec": header_spec,
                "spec_hash": "0123456789abcdef", "items": 1,
            })
        async def scenario():
            telemetry = TelemetryRecorder()
            manager = JobManager(str(tmp_path), telemetry=telemetry)
            await manager.start()
            try:
                assert manager.jobs == {}
                assert telemetry.value("service.jobs.unreadable") == 1
                job, created = manager.submit(spec)
                assert created
                await wait_for(job, {DONE})
            finally:
                await manager.stop()

        asyncio.run(scenario())

    def test_foreign_json_in_root_is_ignored(self, tmp_path):
        (tmp_path / "notes.txt").write_text("hello")
        (tmp_path / "report.json").write_text(json.dumps({"x": 1}))
        manager = JobManager(str(tmp_path))
        manager.recover()
        assert manager.jobs == {}
