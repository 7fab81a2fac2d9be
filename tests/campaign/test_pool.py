"""Campaign pool invariants: one-item dispatch, worker death, determinism.

The pool must never lose or double-credit a fault — under normal
completion, under worker death, and under resume — and the final merged
report must be identical no matter how many workers the items were
spread across.
"""

import json
import os
import signal
import struct
import threading
import time
from multiprocessing.connection import Connection

import repro.campaign.runner as campaign_runner
import repro.campaign.worker as campaign_worker
from repro.campaign import (
    CampaignRunner,
    CampaignSpec,
    CampaignWarmState,
    build_items,
    read_events,
)
from repro.knowledge import load_knowledge
from repro.policy.dataset import dataset_from_reports
from repro.policy.model import train_policy


def spec(**overrides):
    base = dict(circuits=("s27",), name="pool", seed=3, shard_size=1,
                passes=1, fault_limit=10)
    base.update(overrides)
    return CampaignSpec(**base)


def items_of(s):
    """The catalogue, read from the spec's warm state."""
    return build_items(s, CampaignWarmState.build(s))


def without_timing(value):
    """Drop wall-clock fields, and ``kernel_compiles``: every forked
    worker fills its own kernel cache."""
    if isinstance(value, dict):
        return {
            k: without_timing(v)
            for k, v in value.items()
            if not (
                k.endswith("time_s")
                or k.endswith(".seconds")
                or k in ("kernel_compile_s", "kernel_compiles")
            )
        }
    if isinstance(value, list):
        return [without_timing(v) for v in value]
    return value


def facts(document):
    """The states a serialized knowledge store holds a fact about."""
    if document is None:
        return set()
    return {
        tuple(map(tuple, entry["state"]))
        for entry in document["justified"] + document["unjustifiable"]
    }


def in_own_session(tmp_path, body, stalled):
    """``body()``'s JSON-able result, computed in a forked child.

    The child leads its own process group and never returns to pytest.
    A child still running after 60 s is killed with its group and fails
    the test with ``stalled``, so a deadlock fails the test instead of
    hanging it.
    """
    out = tmp_path / "child.json"
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.setsid()
            out.write_text(json.dumps(body()))
            status = 0
        finally:
            os._exit(status)
    deadline = time.monotonic() + 60.0
    while time.monotonic() < deadline:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        time.sleep(0.05)
    else:
        os.killpg(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise AssertionError(stalled)
    assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0
    return json.loads(out.read_text())


def merged_s27(result):
    merged = result.circuits["s27"]
    return {"vectors": merged.vectors, "detected": merged.detected}


class TestPoolProtocol:
    def test_no_item_lost_or_double_credited(self, tmp_path):
        """Every catalogue item lands exactly one ``item_done`` when
        more workers than one share the queue."""
        s = spec(fault_limit=None)  # all 26 per-fault items
        journal = str(tmp_path / "pool.jsonl")
        result = CampaignRunner(s, journal, workers=3).run()
        events = read_events(journal)
        done = [e["item"] for e in events if e["type"] == "item_done"]
        catalogue = [i.item_id for i in items_of(s)]
        assert sorted(done) == sorted(catalogue)  # none lost, none twice
        assert result.items_done == len(catalogue)
        assert result.items_failed == 0

    def test_worker_dying_mid_item_is_requeued_and_respawned(
        self, tmp_path, monkeypatch
    ):
        """One pooled worker exits in the middle of ``s27/004``.  The
        runner requeues what it held without consuming an attempt,
        respawns it, and the merged result equals the 1-worker run."""
        reference = CampaignRunner(
            spec(), str(tmp_path / "ref.jsonl"), workers=1
        ).run()
        real_run_item = campaign_worker.run_item
        marker = tmp_path / "died"

        def dying_run_item(item_spec, item, warm, clock=None):
            # forked workers inherit this patched global; the marker
            # file makes the death happen once across processes
            if item.item_id == "s27/004" and not marker.exists():
                marker.touch()
                os._exit(1)
            return real_run_item(item_spec, item, warm, clock)

        monkeypatch.setattr(campaign_worker, "run_item", dying_run_item)
        journal = str(tmp_path / "dying.jsonl")
        result = CampaignRunner(spec(), journal, workers=2).run()
        events = read_events(journal)

        def of(kind):
            return [e for e in events if e["type"] == kind]

        interrupted = of("item_interrupted")
        assert "s27/004" in {e["item"] for e in interrupted}
        assert all(e["attempt"] == 1 for e in interrupted)
        assert all(e["attempt"] == 1 for e in of("item_done"))
        done = sorted(e["item"] for e in of("item_done"))
        assert done == sorted(i.item_id for i in items_of(spec()))
        assert of("item_failed") == []
        assert len({e["pid"] for e in of("item_started")}) > 2
        assert (result.circuits["s27"].vectors
                == reference.circuits["s27"].vectors)
        assert (result.circuits["s27"].detected
                == reference.circuits["s27"].detected)

    def test_worker_killed_mid_message_does_not_stall_the_others(
        self, tmp_path, monkeypatch
    ):
        """Worker 0 dies in the middle of sending its first message.

        A kill between the bytes of a message leaves the result channel
        as this test leaves it: a shared queue's write lock held forever,
        or a private pipe holding a torn frame.  The campaign must still
        finish with the 1-worker result.  It runs in a forked child that
        leads its own process group, so a deadlock fails the test after 60 s
        instead of hanging it.
        """
        reference = CampaignRunner(
            spec(), str(tmp_path / "ref.jsonl"), workers=1
        ).run()
        real_worker_main = campaign_runner.worker_main
        marker = tmp_path / "torn"

        def tearing_worker_main(wid, task_conn, channel, *rest):
            if wid == 0 and not marker.exists():
                marker.touch()
                if isinstance(channel, Connection):
                    # a length header promising more bytes than follow
                    os.write(channel.fileno(), struct.pack("!i", 1 << 16) + b"torn")
                else:
                    channel._wlock.acquire()
                os._exit(1)
            real_worker_main(wid, task_conn, channel, *rest)

        monkeypatch.setattr(campaign_runner, "worker_main", tearing_worker_main)
        merged = in_own_session(
            tmp_path,
            lambda: merged_s27(CampaignRunner(
                spec(), str(tmp_path / "torn.jsonl"), workers=2
            ).run()),
            "campaign deadlocked after a torn message",
        )
        assert merged == merged_s27(reference)

    def test_broken_task_pipe_marks_its_worker_dead(
        self, tmp_path, monkeypatch
    ):
        """Worker 0 closes its task pipe's read end after its first task,
        reports that task started and stays alive, so the parent's next
        send to it fails.  The runner must take the failed send as the
        worker's death: kill it, requeue both items it held at their
        attempt, respawn it, and end with the 1-worker result."""
        reference = CampaignRunner(
            spec(), str(tmp_path / "ref.jsonl"), workers=1
        ).run()
        real_worker_main = campaign_runner.worker_main
        marker = tmp_path / "closed"

        def closing_worker_main(wid, task_conn, result_conn, *rest):
            if wid == 0 and not marker.exists():
                marker.touch()
                item, attempt = task_conn.recv()
                task_conn.close()
                result_conn.send(
                    ("started", wid, item.item_id, (attempt, os.getpid()))
                )
                time.sleep(120)  # alive until the parent kills it
                os._exit(1)
            real_worker_main(wid, task_conn, result_conn, *rest)

        monkeypatch.setattr(campaign_runner, "worker_main", closing_worker_main)
        journal = str(tmp_path / "closed.jsonl")
        merged = in_own_session(
            tmp_path,
            lambda: merged_s27(
                CampaignRunner(spec(), journal, workers=2).run()
            ),
            "campaign stalled on a worker whose task pipe broke",
        )
        assert merged == merged_s27(reference)
        events = read_events(journal)
        interrupted = [e for e in events if e["type"] == "item_interrupted"]
        # the item it started, and the one whose send failed
        assert len(interrupted) == 2
        assert {(e["worker"], e["attempt"]) for e in interrupted} == {(0, 1)}
        assert [e for e in events if e["type"] == "item_failed"] == []

    def test_torn_pipe_reaches_eof_while_another_runner_spawns(
        self, tmp_path, monkeypatch
    ):
        """Two runners in one process, as the service runs two jobs.

        Runner ``a`` is held after starting worker 0, before closing its
        copy of that worker's result pipe, while runner ``b`` spawns.
        Worker 0 then tears its first message and dies.  Had a worker of
        ``b`` forked inside that window, it would hold the pipe's write
        end: ``a`` would get no EOF and block in ``recv``, while ``b``'s
        items wait for ``a`` to finish.  Both must finish, ``a`` with the
        1-worker result.  It runs in a forked child that leads its own
        process group, so a deadlock fails the test after 60 s.
        """
        reference = CampaignRunner(
            spec(name="a"), str(tmp_path / "ref.jsonl"), workers=1
        ).run()
        real_fork_context = campaign_runner._fork_context
        real_worker_main = campaign_runner.worker_main
        real_run_item = campaign_worker.run_item
        torn, a_done = tmp_path / "torn", tmp_path / "a_done"
        a_in_window, b_spawned = threading.Event(), threading.Event()

        class HeldContext:
            """The fork context; ``a``'s first start waits for ``b``'s."""

            def __init__(self, real):
                self._real = real

            def __getattr__(self, name):
                return getattr(self._real, name)

            def Process(self, *args, **kwargs):
                proc = self._real.Process(*args, **kwargs)
                start, runner = proc.start, threading.current_thread().name

                def held_start():
                    start()
                    if runner == "b":
                        b_spawned.set()
                    elif not a_in_window.is_set():
                        a_in_window.set()
                        # with the lock, b waits for this spawn to close
                        b_spawned.wait(timeout=2.0)

                proc.start = held_start
                return proc

        def fork_context():
            if threading.current_thread().name == "b":
                a_in_window.wait(timeout=60)
            return HeldContext(real_fork_context())

        def tearing_worker_main(wid, task_conn, channel, item_spec, *rest):
            if item_spec.name == "a" and wid == 0 and not torn.exists():
                torn.touch()
                os.write(channel.fileno(), struct.pack("!i", 1 << 16) + b"torn")
                os._exit(1)
            real_worker_main(wid, task_conn, channel, item_spec, *rest)

        def waiting_run_item(item_spec, item, warm, clock=None):
            while item_spec.name == "b" and not a_done.exists():
                time.sleep(0.05)
            return real_run_item(item_spec, item, warm, clock)

        monkeypatch.setattr(campaign_runner, "_fork_context", fork_context)
        monkeypatch.setattr(campaign_runner, "worker_main", tearing_worker_main)
        monkeypatch.setattr(campaign_worker, "run_item", waiting_run_item)

        def run_both():
            results = {}

            def run(name):
                results[name] = CampaignRunner(
                    spec(name=name), str(tmp_path / f"{name}.jsonl"),
                    workers=2,
                ).run()
                if name == "a":
                    a_done.touch()

            threads = [
                threading.Thread(target=run, args=(name,), name=name)
                for name in "ab"
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            return dict(merged_s27(results["a"]),
                        b_items_done=results["b"].items_done)

        merged = in_own_session(
            tmp_path, run_both, "a runner missed EOF on a torn result pipe"
        )
        assert merged == dict(merged_s27(reference),
                              b_items_done=len(items_of(spec())))


class TestWorkerCountDeterminism:
    def test_final_report_identical_across_1_2_4_workers(self, tmp_path):
        """The headline invariant the pool must preserve: with one
        isolated knowledge store per item, scheduling is invisible —
        workers=1/2/4 end in the same vectors, detections, and
        coverage."""
        results = {}
        for workers in (1, 2, 4):
            journal = str(tmp_path / f"w{workers}.jsonl")
            results[workers] = CampaignRunner(
                spec(), journal, workers=workers
            ).run()
        reference = results[1]
        for workers in (2, 4):
            result = results[workers]
            assert (result.circuits["s27"].vectors
                    == reference.circuits["s27"].vectors), workers
            assert (result.circuits["s27"].detected
                    == reference.circuits["s27"].detected), workers
            assert result.fault_coverage == reference.fault_coverage

    def test_resume_of_pooled_run_matches_pooled_reference(self, tmp_path):
        """Truncating a pooled journal mid-flight and resuming
        reproduces the uninterrupted result.  The cut journal carries a
        ``lease`` event, as older runners wrote one, with no terminal
        item events for its items, as a SIGKILL would leave it."""
        ref_journal = str(tmp_path / "ref.jsonl")
        reference = CampaignRunner(spec(), ref_journal, workers=2).run()
        events = read_events(ref_journal)
        catalogue = [i.item_id for i in items_of(spec())]
        partial = tmp_path / "partial.jsonl"
        with open(partial, "w") as handle:
            for event in events:
                if event["type"] in ("campaign", "items"):
                    handle.write(json.dumps(event) + "\n")
            lease = {"type": "lease", "worker": 0, "items": catalogue[:4]}
            handle.write(json.dumps(lease) + "\n")
            for event in [e for e in events
                          if e["type"] == "item_done"][:3]:
                handle.write(json.dumps(event) + "\n")
        resumed = CampaignRunner.resume(str(partial), workers=2)
        assert (resumed.circuits["s27"].vectors
                == reference.circuits["s27"].vectors)
        assert (resumed.circuits["s27"].detected
                == reference.circuits["s27"].detected)
        assert resumed.fault_coverage == reference.fault_coverage

    def test_phase_times_reported(self, tmp_path):
        journal = str(tmp_path / "phases.jsonl")
        result = CampaignRunner(spec(), journal, workers=2).run()
        assert set(result.phase_times) == {
            "warm_s", "fork_s", "solve_s", "merge_s"
        }
        assert all(v >= 0.0 for v in result.phase_times.values())
        merged = [e for e in read_events(journal) if e["type"] == "merged"]
        assert merged[0]["summary"]["phase_times"]["fork_s"] >= 0.0

    def test_preload_and_policy_reach_forked_workers(self, tmp_path):
        """A knowledge preload and a policy reach forked workers only
        through the warm state the runner hands them, so the item
        payloads at 2 workers must equal the inline ones."""
        base = dict(circuits=("s27", "s298"), name="inputs", seed=3,
                    fault_limit=30, passes=1)
        # the HITEC baseline proves facts on both circuits for the preload
        prior = CampaignRunner(
            CampaignSpec(**base, baseline=True, justify_depth=1),
            str(tmp_path / "prior.jsonl"),
        )
        report = prior.run().report
        policy = train_policy(dataset_from_reports([report])).to_dict()
        # start every fault at pass 2, so that each one-fault item of a
        # two-pass schedule skips pass 1
        policy["models"]["pass"].update(bias=2.0, trees=[])
        policy_path = tmp_path / "policy.json"
        policy_path.write_text(json.dumps(policy))
        preload = load_knowledge(prior.knowledge_path())
        s = CampaignSpec(**dict(base, passes=2),
                         knowledge_file=prior.knowledge_path(),
                         policy_file=str(policy_path))
        payloads = {}
        for workers in (1, 2):
            journal = str(tmp_path / f"w{workers}.jsonl")
            CampaignRunner(s, journal, workers=workers).run()
            payloads[workers] = {
                e["item"]: without_timing(e["payload"])
                for e in read_events(journal) if e["type"] == "item_done"
            }
        assert sorted(payloads[1]) == [i.item_id for i in items_of(s)]
        assert payloads[2] == payloads[1]
        assert sorted(preload) == sorted(s.circuits)
        for payload in payloads[1].values():
            # every item's store starts from its circuit's preloaded facts
            assert facts(payload["knowledge"]) >= facts(
                preload[payload["circuit"]].to_dict()
            )
            # the plan reached the item's driver
            counters = payload["report"]["metrics"]["counters"]
            assert counters["atpg.policy.pass_skips"] == 1
