"""Work-stealing pool invariants: leases, revokes, and determinism.

The lease/steal protocol must never lose or double-credit a fault —
under normal completion, under revocation, under worker death, and under
resume — and the final merged report must be identical no matter how
many workers the items were spread across.
"""

import json

from repro.campaign import (
    CampaignRunner,
    CampaignSpec,
    WorkQueue,
    build_items,
    read_events,
)


def spec(**overrides):
    base = dict(circuits=("s27",), name="steal", seed=3, shard_size=1,
                passes=1, fault_limit=10)
    base.update(overrides)
    return CampaignSpec(**base)


class TestTakeMany:
    def test_claims_up_to_limit_without_duplicates(self):
        s = spec()
        items = build_items(s)
        queue = WorkQueue(items, s.max_attempts)
        first = queue.take_many(4)
        second = queue.take_many(100)
        ids = [i.item_id for i in first + second]
        assert len(first) == 4
        assert len(ids) == len(set(ids)) == len(items)
        assert queue.take_many(5) == []

    def test_pending_tracks_claimable_items(self):
        s = spec()
        items = build_items(s)
        queue = WorkQueue(items, s.max_attempts)
        assert queue.pending() == len(items)
        taken = queue.take_many(3)
        assert queue.pending() == len(items) - 3
        queue.mark_interrupted(taken[0].item_id)
        assert queue.pending() == len(items) - 2

    def test_interrupted_lease_keeps_attempt_and_seed(self):
        """A revoked (or crash-requeued) lease must not burn an attempt:
        the item reruns with its original seed, exactly as if it had
        never been leased."""
        s = spec(fault_limit=1)
        items = build_items(s)
        queue = WorkQueue(items, s.max_attempts)
        (taken,) = queue.take_many(1)
        queue.mark_interrupted(taken.item_id)
        (again,) = queue.take_many(1)
        assert again.item_id == taken.item_id
        assert again.seed == taken.seed
        assert queue.attempt_of(again.item_id) == 1


class TestPoolProtocol:
    def test_no_item_lost_or_double_credited(self, tmp_path):
        """Every catalogue item lands exactly one ``item_done`` even
        when leases are granted, revoked, and stolen along the way."""
        s = spec(fault_limit=None)  # all 26 per-fault items: steals happen
        journal = str(tmp_path / "pool.jsonl")
        result = CampaignRunner(s, journal, workers=3).run()
        events = read_events(journal)
        done = [e["item"] for e in events if e["type"] == "item_done"]
        catalogue = [i.item_id for i in build_items(s)]
        assert sorted(done) == sorted(catalogue)  # none lost, none twice
        assert result.items_done == len(catalogue)
        assert result.items_failed == 0

    def test_stolen_items_complete_elsewhere(self, tmp_path):
        """Items named by a ``steal`` event still finish exactly once."""
        s = spec(fault_limit=None)
        journal = str(tmp_path / "steal.jsonl")
        CampaignRunner(s, journal, workers=3).run()
        events = read_events(journal)
        stolen = [i for e in events if e["type"] == "steal"
                  for i in e["items"]]
        done = [e["item"] for e in events if e["type"] == "item_done"]
        for item_id in stolen:
            assert done.count(item_id) == 1

    def test_lease_events_cover_all_started_items(self, tmp_path):
        s = spec()
        journal = str(tmp_path / "lease.jsonl")
        CampaignRunner(s, journal, workers=2).run()
        events = read_events(journal)
        leased = {i for e in events if e["type"] == "lease"
                  for i in e["items"]}
        started = {e["item"] for e in events if e["type"] == "item_started"}
        assert started <= leased


class TestWorkerCountDeterminism:
    def test_final_report_identical_across_1_2_4_workers(self, tmp_path):
        """The headline invariant the steal protocol must preserve: with
        one isolated knowledge store per item, scheduling is invisible —
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
        """Truncating a pooled journal mid-flight (keeping a lease event
        with no terminal item events, as a SIGKILL would) and resuming
        reproduces the uninterrupted result."""
        ref_journal = str(tmp_path / "ref.jsonl")
        reference = CampaignRunner(spec(), ref_journal, workers=2).run()
        events = read_events(ref_journal)
        partial = tmp_path / "partial.jsonl"
        with open(partial, "w") as handle:
            for event in events:
                if event["type"] in ("campaign", "items", "lease"):
                    handle.write(json.dumps(event) + "\n")
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
