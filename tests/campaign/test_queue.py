"""Work-item catalogue construction and queue state machine."""

import pytest

from repro.campaign import (
    CampaignError,
    CampaignSpec,
    CampaignWarmState,
    ItemState,
    WorkQueue,
    build_items,
    seed_for_attempt,
    shard_faults,
)


def spec(**overrides):
    base = dict(circuits=("s27",), seed=5, shard_size=8)
    base.update(overrides)
    return CampaignSpec(**base)


def items_of(s):
    """The catalogue, read from the spec's warm state."""
    return build_items(s, CampaignWarmState.build(s))


class TestBuildItems:
    def test_shards_cover_fault_list(self):
        s = spec()
        items = items_of(s)
        faults = shard_faults(s, "s27")
        assert sum(i.count for i in items) == len(faults)
        assert [i.start for i in items] == list(
            range(0, len(faults), s.shard_size)
        )

    def test_item_ids_are_stable(self):
        assert [i.item_id for i in items_of(spec())][:2] == [
            "s27/000", "s27/001",
        ]

    def test_deterministic_catalogue(self):
        a, b = items_of(spec()), items_of(spec())
        assert a == b

    def test_seed_changes_with_spec_seed(self):
        a = items_of(spec(seed=1))[0]
        b = items_of(spec(seed=2))[0]
        assert a.seed != b.seed

    def test_fault_limit_caps_items(self):
        items = items_of(spec(fault_limit=3))
        assert len(items) == 1 and items[0].count == 3

    def test_empty_campaign_rejected(self):
        with pytest.raises(CampaignError):
            items_of(spec(fault_limit=0))


class TestSeedForAttempt:
    def test_first_attempt_keeps_item_seed(self):
        item = items_of(spec())[0]
        assert seed_for_attempt(item, 1) == item.seed

    def test_retries_perturb_deterministically(self):
        item = items_of(spec())[0]
        second = seed_for_attempt(item, 2)
        assert second != item.seed
        assert second == seed_for_attempt(item, 2)
        assert second != seed_for_attempt(item, 3)


class TestWorkQueue:
    def make(self, max_attempts=2):
        items = items_of(spec())
        return items, WorkQueue(items, max_attempts=max_attempts)

    def test_take_claims_each_item_once(self):
        items, queue = self.make()
        taken = []
        while True:
            item = queue.take()
            if item is None:
                break
            taken.append(item.item_id)
        assert taken == [i.item_id for i in items]

    def test_done_lifecycle(self):
        items, queue = self.make()
        item = queue.take()
        queue.mark_done(item.item_id)
        assert queue.state_of(item.item_id) is ItemState.DONE
        assert not queue.finished()  # other items still pending

    def test_failure_retries_with_new_seed(self):
        items, queue = self.make(max_attempts=2)
        first = queue.take()
        assert queue.mark_failed(first.item_id, "boom") is True
        # drain the other pending items so the retry surfaces
        seen = {}
        while True:
            item = queue.take()
            if item is None:
                break
            seen[item.item_id] = item
        retry = seen[first.item_id]
        assert retry.seed != first.seed
        assert queue.attempt_of(first.item_id) == 2

    def test_failure_exhausts_attempts(self):
        items, queue = self.make(max_attempts=1)
        item = queue.take()
        assert queue.mark_failed(item.item_id, "boom") is False
        assert queue.state_of(item.item_id) is ItemState.FAILED
        assert item.item_id in queue.failed_items()

    def test_interruption_preserves_seed_and_attempt(self):
        items, queue = self.make(max_attempts=1)
        first = queue.take()
        queue.mark_interrupted(first.item_id)
        assert queue.attempt_of(first.item_id) == 0
        seen = {}
        while True:
            item = queue.take()
            if item is None:
                break
            seen[item.item_id] = item
        assert seen[first.item_id].seed == first.seed

    def test_mark_done_removes_from_pending(self):
        items, queue = self.make()
        queue.mark_done(items[0].item_id)
        taken = []
        while True:
            item = queue.take()
            if item is None:
                break
            taken.append(item.item_id)
        assert items[0].item_id not in taken

    def test_restore_attempts_keeps_exhausted_failed(self):
        items, queue = self.make(max_attempts=2)
        queue.restore_attempts(items[0].item_id, 2)
        assert queue.state_of(items[0].item_id) is ItemState.FAILED
        queue.restore_attempts(items[1].item_id, 1)
        assert queue.state_of(items[1].item_id) is ItemState.PENDING
        assert queue.attempt_of(items[1].item_id) == 1

    def test_restore_unknown_item_rejected(self):
        _, queue = self.make()
        with pytest.raises(CampaignError):
            queue.mark_done("nope/000")
        with pytest.raises(CampaignError):
            queue.restore_attempts("nope/000", 1)

    def test_counts_and_finished(self):
        items, queue = self.make()
        assert queue.counts()["pending"] == len(items)
        while True:
            item = queue.take()
            if item is None:
                break
            queue.mark_done(item.item_id)
        assert queue.finished()
        assert queue.counts()["done"] == len(items)
