"""CampaignRunner: inline and pooled execution, journaling, resume."""

import gc
import json
import sys
import threading
import weakref
from collections import Counter

import pytest

import repro.campaign.runner as campaign_runner
import repro.campaign.spec as campaign_spec
from repro.atpg.justify import JustifySteps
from repro.campaign import (
    CampaignError,
    CampaignRunner,
    CampaignSpec,
    CampaignWarmState,
    build_items,
    read_events,
    run_item,
    shard_faults,
)
from repro.circuits.resolve import resolve_circuit
from repro.faults.collapse import collapse_faults
from repro.simulation import kernel_cache

from .test_pool import without_timing


def spec(**overrides):
    base = dict(circuits=("s27",), name="r", seed=3, shard_size=8, passes=2)
    base.update(overrides)
    return CampaignSpec(**base)


def run_campaign(tmp_path, s=None, name="j.jsonl", **runner_kwargs):
    journal = str(tmp_path / name)
    runner = CampaignRunner(s or spec(), journal, **runner_kwargs)
    return runner.run(), journal


class TestInlineRun:
    def test_completes_with_full_coverage(self, tmp_path):
        result, _ = run_campaign(tmp_path)
        assert result.items_failed == 0
        assert result.fault_coverage == 1.0
        assert result.circuits["s27"].vectors

    def test_journal_records_every_transition(self, tmp_path):
        result, journal = run_campaign(tmp_path)
        kinds = [e["type"] for e in read_events(journal)]
        assert kinds[0] == "campaign" and kinds[1] == "items"
        assert kinds[-1] == "merged"
        assert kinds.count("item_done") == result.items_done
        assert kinds.count("item_started") >= result.items_done

    def test_refuses_to_clobber_existing_journal(self, tmp_path):
        _, journal = run_campaign(tmp_path)
        with pytest.raises(CampaignError, match="resume"):
            CampaignRunner(spec(), journal).run()

    def test_report_carries_worker_count(self, tmp_path):
        result, _ = run_campaign(tmp_path)
        assert result.report.jobs == 1
        assert result.report.wall_time_s == result.wall_time_s

    def test_unloadable_policy_leaves_no_journal(self, tmp_path):
        """The warm state is built before the first journal write, so a
        spec whose inputs cannot load fails the same way every time."""
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        journal = tmp_path / "j.jsonl"
        for _ in range(2):
            with pytest.raises(CampaignError, match="invalid policy artifact"):
                CampaignRunner(spec(policy_file=str(bad)), str(journal)).run()
        assert not journal.exists()


def calls_through_every_module(monkeypatch, fn):
    """The first argument of every call of ``fn``, through whichever
    ``repro`` module imported it."""
    firsts = []

    def counted(first, *args, **kwargs):
        firsts.append(first)
        return fn(first, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if module is not None and name.split(".")[0] == "repro":
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counted)
    return firsts


class TestWarmStateIsTheOnlySource:
    def test_a_run_resolves_and_collapses_each_circuit_once(
        self, tmp_path, monkeypatch
    ):
        """The catalogue, the items and the merge all read the warm state."""
        resolved = calls_through_every_module(monkeypatch, resolve_circuit)
        collapsed = calls_through_every_module(monkeypatch, collapse_faults)
        s = spec(circuits=("s27", "s298"), passes=1, fault_limit=6,
                 shard_size=3, baseline=True)
        result, _ = run_campaign(tmp_path, s)
        assert result.items_failed == 0 and result.detected > 0
        assert Counter(resolved) == {"s27": 1, "s298": 1}
        assert Counter(c.name for c in collapsed) == {"s27": 1, "s298": 1}

    def test_drills_read_the_same_warm_state(self):
        s = spec(circuits=("s27", "s298"), fault_limit=5,
                 synthetic_item_seconds=0.0)
        warm = CampaignWarmState.build(s)
        assert sorted(warm.circuits) == ["s27", "s298"]
        for name, state in warm.circuits.items():
            assert state.faults == shard_faults(s, name)


def run_items(s, private):
    """Run every item of ``s`` in this process through one warm state; with
    ``private`` each item gets a memo of its own.  Returns the payloads
    (without ``kernel_compiles``: the second run finds every GA kernel
    compiled) and how many single-step searches the items built and
    reused."""
    warm = CampaignWarmState.build(s)
    payloads, built, reuses = [], 0, 0
    for item in build_items(s, warm):
        state = warm.circuits[item.circuit]
        if private:
            state.justify_steps = JustifySteps()
        built0, reuses0 = state.justify_steps.built, state.justify_steps.reuses
        payloads.append(without_timing(run_item(s, item, warm).to_dict()))
        built += state.justify_steps.built - built0
        reuses += state.justify_steps.reuses - reuses0
    return payloads, built, reuses


def watch_warm_states(monkeypatch, keep):
    """Hand every warm state the runner builds to ``keep``."""
    real = CampaignWarmState.build.__func__

    def build(cls, s):
        warm = real(cls, s)
        keep(warm)
        return warm

    monkeypatch.setattr(CampaignWarmState, "build", classmethod(build))


class TestJustifyMemoScope:
    """A campaign keeps one memo of single-step searches per circuit in
    each process, and an item's payload does not depend on it."""

    @pytest.mark.parametrize("overrides", [
        dict(seed=7, passes=3, seq_len=4, fault_limit=16),
        dict(seed=3, passes=1, baseline=True, fault_model="transition",
             fault_limit=40),
        # the memo serves both budgets
        dict(seed=1, passes=2, baseline=True, fault_limit=12),
    ], ids=["gahitec", "hitec-transition", "hitec-two-passes"])
    def test_a_shared_memo_changes_no_payload(self, overrides):
        s = spec(circuits=("s27", "s298"), shard_size=1, backtracks=5,
                 justify_depth=3, **overrides)
        shared, shared_built, shared_reuses = run_items(s, private=False)
        private, private_built, private_reuses = run_items(s, private=True)
        assert shared == private
        # later items replay searches earlier items built
        assert shared_built < private_built
        assert shared_built + shared_reuses == private_built + private_reuses

    def test_a_pooled_run_leaves_the_parents_memo_empty(
        self, tmp_path, monkeypatch
    ):
        built = []
        watch_warm_states(monkeypatch, built.append)
        s = spec(circuits=("s27", "s298"), passes=1, baseline=True,
                 fault_limit=6, shard_size=1, backtracks=5, justify_depth=3)
        result, _ = run_campaign(tmp_path, s, workers=2)
        assert result.items_failed == 0 and result.detected > 0
        (warm,) = built
        for state in warm.circuits.values():
            memo = state.justify_steps
            assert (memo.built, memo.reuses, memo._streams) == (0, 0, {})

    def test_an_inline_runs_memo_is_freed_when_run_returns(
        self, tmp_path, monkeypatch
    ):
        memos, filled = [], []
        watch_warm_states(monkeypatch, lambda warm: memos.extend(
            weakref.ref(state.justify_steps) for state in warm.circuits.values()
        ))
        real_run_item = campaign_runner.run_item

        def counted(s, item, warm, *args, **kwargs):
            outcome = real_run_item(s, item, warm, *args, **kwargs)
            filled.append(warm.circuits[item.circuit].justify_steps.built)
            return outcome

        monkeypatch.setattr(campaign_runner, "run_item", counted)
        s = spec(circuits=("s27", "s298"), passes=1, baseline=True,
                 fault_limit=6, shard_size=1, backtracks=5, justify_depth=3)
        gc.collect()
        gc.disable()
        try:
            result, _ = run_campaign(tmp_path, s)
            alive = [memo() is not None for memo in memos]
        finally:
            gc.enable()
        assert result.items_failed == 0
        assert len(memos) == 2 and max(filled) > 0
        assert alive == [False, False]


class TestConcurrentRunners:
    def test_items_never_rebuild_their_fault_list(self, tmp_path, monkeypatch):
        """Two runners in two threads of one process, as the service runs
        its jobs.  Both reach their first item before either runs it; no
        item may then collapse its circuit's faults again, because every
        item reads its own runner's warm state."""
        barrier = threading.Barrier(2, timeout=60)
        local = threading.local()
        collapsed_in_item = []
        real_collapse = campaign_spec.collapse_faults
        real_run_item = campaign_runner.run_item

        def collapse_faults(*args, **kwargs):
            if getattr(local, "in_item", False):
                collapsed_in_item.append(threading.current_thread().name)
            return real_collapse(*args, **kwargs)

        def run_item(*args, **kwargs):
            if not getattr(local, "started", False):
                local.started = True
                barrier.wait()
            local.in_item = True
            try:
                return real_run_item(*args, **kwargs)
            finally:
                local.in_item = False

        monkeypatch.setattr(campaign_spec, "collapse_faults", collapse_faults)
        monkeypatch.setattr(campaign_runner, "run_item", run_item)
        specs = {
            "a": spec(fault_limit=8),
            "b": spec(seed=4, fault_limit=16),
        }
        results = {}

        def run(name):
            results[name], _ = run_campaign(
                tmp_path, specs[name], name=f"{name}.jsonl"
            )

        threads = [
            threading.Thread(target=run, args=(name,), name=name)
            for name in specs
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
        assert not any(thread.is_alive() for thread in threads)
        assert not barrier.broken
        assert sorted(results) == ["a", "b"]
        assert collapsed_in_item == []
        for name, result in results.items():
            assert result.items_failed == 0
            assert result.circuits["s27"].total_faults == specs[name].fault_limit

    def test_kernel_counters_stay_with_their_run(self, tmp_path, monkeypatch):
        """A run reports the kernels its own thread compiled: the same
        spec reports the same ``kernel_compiles`` whether it runs alone
        or overlaps another run in a second thread."""
        monkeypatch.delenv(kernel_cache.ENV_VAR, raising=False)
        specs = {
            "a": CampaignSpec(circuits=("s27",), name="a", seed=7,
                              shard_size=8, passes=1),
            "b": CampaignSpec(circuits=("s298",), name="b", seed=7,
                              shard_size=8, passes=1, fault_limit=16,
                              backtracks=5, justify_depth=3),
        }
        alone = {}
        for name, s in specs.items():
            result, _ = run_campaign(tmp_path, s, name=f"alone-{name}.jsonl")
            alone[name] = result.report.kernel_compiles
        barrier = threading.Barrier(2, timeout=60)
        together = {}

        def run(name):
            barrier.wait()
            result, _ = run_campaign(tmp_path, specs[name], name=f"{name}.jsonl")
            together[name] = result.report.kernel_compiles

        threads = [threading.Thread(target=run, args=(name,)) for name in specs]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
        assert not any(thread.is_alive() for thread in threads)
        assert all(alone.values())
        assert together == alone


class TestTimeoutPolicy:
    def test_timeouts_retry_then_keep_final_partial(self, tmp_path):
        s = spec(item_timeout_s=1e-9, max_attempts=2, fault_limit=8)
        result, journal = run_campaign(tmp_path, s)
        events = read_events(journal)
        failed = [e for e in events if e["type"] == "item_failed"]
        done = [e for e in events if e["type"] == "item_done"]
        assert failed and all(e["error"] == "timeout" for e in failed)
        assert len(done) == 1  # final attempt keeps the partial result
        assert done[0]["attempt"] == 2
        assert result.items_failed == 0


class TestPooledRun:
    def test_matches_inline_results(self, tmp_path):
        inline, _ = run_campaign(tmp_path, name="inline.jsonl", workers=1)
        pooled, _ = run_campaign(tmp_path, name="pool.jsonl", workers=2)
        assert pooled.circuits["s27"].vectors == inline.circuits["s27"].vectors
        assert (pooled.circuits["s27"].detected
                == inline.circuits["s27"].detected)

    def test_hung_workers_are_killed_and_items_failed(self, tmp_path):
        s = spec(synthetic_item_seconds=2.0, fault_limit=2, shard_size=1,
                 max_attempts=1)
        journal = str(tmp_path / "hang.jsonl")
        runner = CampaignRunner(s, journal, workers=2,
                                heartbeat_interval=30.0, hang_timeout_s=0.2)
        result = runner.run()
        assert result.items_failed == 2
        errors = {e["error"] for e in read_events(journal)
                  if e["type"] == "item_failed"}
        assert errors == {"hung"}

    def test_hung_workers_queued_item_keeps_its_attempt(self, tmp_path):
        """A hung worker's running item fails, but the item queued behind
        it is requeued through the crash path at the same attempt."""
        s = spec(synthetic_item_seconds=2.0, fault_limit=3, shard_size=1,
                 max_attempts=1)
        journal = str(tmp_path / "hang.jsonl")
        runner = CampaignRunner(s, journal, workers=2,
                                heartbeat_interval=30.0, hang_timeout_s=0.2)
        result = runner.run()
        assert result.items_failed == 3
        events = read_events(journal)
        failed = {e["item"]: e for e in events if e["type"] == "item_failed"}
        assert len(failed) == 3
        assert {e["error"] for e in failed.values()} == {"hung"}
        interrupted = [e for e in events if e["type"] == "item_interrupted"]
        assert interrupted
        for event in interrupted:
            assert event["attempt"] == 1
            assert failed[event["item"]]["attempt"] == 1


class TestResume:
    def test_resume_equals_uninterrupted_run(self, tmp_path):
        reference, ref_journal = run_campaign(tmp_path, name="ref.jsonl")
        events = read_events(ref_journal)
        # keep the header, the catalogue, and only the first finished item
        prefix = [e for e in events if e["type"] in ("campaign", "items")]
        prefix += [e for e in events if e["type"] == "item_done"][:1]
        partial = tmp_path / "partial.jsonl"
        with open(partial, "w") as handle:
            for event in prefix:
                handle.write(json.dumps(event) + "\n")
            handle.write('{"type": "item_started", "item": "s27/001"')
        resumed = CampaignRunner.resume(str(partial))
        assert (resumed.circuits["s27"].vectors
                == reference.circuits["s27"].vectors)
        assert (resumed.circuits["s27"].detected
                == reference.circuits["s27"].detected)
        assert resumed.fault_coverage == reference.fault_coverage

    def test_resume_reruns_only_missing_items(self, tmp_path):
        _, ref_journal = run_campaign(tmp_path, name="ref.jsonl")
        events = read_events(ref_journal)
        prefix = [e for e in events if e["type"] in ("campaign", "items")]
        done = [e for e in events if e["type"] == "item_done"]
        prefix += done[:2]
        partial = tmp_path / "partial.jsonl"
        with open(partial, "w") as handle:
            for event in prefix:
                handle.write(json.dumps(event) + "\n")
        CampaignRunner.resume(str(partial))
        reruns = [e for e in read_events(str(partial))
                  if e["type"] == "item_started"]
        rerun_items = {e["item"] for e in reruns}
        assert rerun_items == {"s27/002", "s27/003"}

    def test_resume_rejects_spec_mismatch(self, tmp_path):
        _, journal = run_campaign(tmp_path)
        other = spec(seed=99)
        with pytest.raises(CampaignError, match="belongs to"):
            CampaignRunner(other, journal).run(resume=True)

    def test_resume_rejects_fault_drift(self, tmp_path):
        _, journal = run_campaign(tmp_path)
        events = read_events(journal)
        tampered = tmp_path / "tampered.jsonl"
        with open(tampered, "w") as handle:
            for event in events:
                if event["type"] == "items":
                    event["catalogue"][0]["fault_hash"] = "0" * 12
                if event["type"] in ("campaign", "items"):
                    handle.write(json.dumps(event) + "\n")
        with pytest.raises(CampaignError, match="drifted"):
            CampaignRunner.resume(str(tampered))


class TestStatus:
    def test_status_of_finished_campaign(self, tmp_path):
        result, journal = run_campaign(tmp_path)
        status = CampaignRunner.status(journal)
        assert status["done"] == result.items_done
        assert status["failed"] == 0
        assert status["merged"]["fault_coverage"] == 1.0

    def test_status_of_partial_journal(self, tmp_path):
        _, journal = run_campaign(tmp_path)
        events = read_events(journal)
        partial = tmp_path / "partial.jsonl"
        with open(partial, "w") as handle:
            for event in events:
                if event["type"] in ("campaign", "items"):
                    handle.write(json.dumps(event) + "\n")
            handle.write(json.dumps(
                {"type": "item_started", "item": "s27/000", "attempt": 1}
            ) + "\n")
        status = CampaignRunner.status(str(partial))
        assert status["done"] == 0
        assert status["in_flight"] == ["s27/000"]
        assert status["merged"] is None
