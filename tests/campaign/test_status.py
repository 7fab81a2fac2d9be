"""CampaignRunner.status on live, killed, and damaged journals."""

import json

import pytest

from repro.campaign import (
    JOURNAL_SCHEMA,
    CampaignError,
    CampaignRunner,
    CampaignSpec,
    Journal,
)


def spec(**overrides):
    base = dict(circuits=("s27",), name="status", seed=5, shard_size=8,
                passes=2)
    base.update(overrides)
    return CampaignSpec(**base)


def start_journal(path, s, items=("s27/000", "s27/001")):
    """A journal as a freshly started campaign would leave it."""
    journal = Journal(str(path))
    journal.append({
        "type": "campaign", "schema": JOURNAL_SCHEMA, "name": s.name,
        "spec": s.to_dict(), "spec_hash": s.spec_hash(),
        "items": len(items),
    })
    journal.append({
        "type": "items",
        "catalogue": [
            {"item": item, "faults": 8, "fault_hash": "abc"}
            for item in items
        ],
    })
    return journal


class TestCompletedCampaign:
    def test_status_after_run(self, tmp_path):
        journal = str(tmp_path / "done.jsonl")
        CampaignRunner(spec(), journal).run()
        status = CampaignRunner.status(journal)
        assert status["done"] == status["items"] > 0
        assert status["failed"] == 0
        assert status["in_flight"] == []
        assert status["merged"]["fault_coverage"] == 1.0
        assert status["spec_hash"] == spec().spec_hash()


class TestInFlightCampaign:
    def test_started_items_show_in_flight(self, tmp_path):
        s = spec()
        journal = start_journal(tmp_path / "live.jsonl", s)
        journal.append({"type": "item_started", "item": "s27/000",
                        "attempt": 1, "pid": 123, "worker": 0})
        journal.close()
        status = CampaignRunner.status(str(tmp_path / "live.jsonl"))
        assert status["in_flight"] == ["s27/000"]
        assert status["done"] == 0
        assert status["merged"] is None

    def test_done_item_leaves_in_flight(self, tmp_path):
        s = spec()
        journal = start_journal(tmp_path / "live.jsonl", s)
        journal.append({"type": "item_started", "item": "s27/000",
                        "attempt": 1, "pid": 1, "worker": 0})
        journal.append({"type": "item_done", "item": "s27/000",
                        "attempt": 1, "payload": {"x": 1}})
        journal.close()
        status = CampaignRunner.status(str(tmp_path / "live.jsonl"))
        assert status["in_flight"] == []
        assert status["done"] == 1

    def test_open_leases_do_not_count_as_in_flight(self, tmp_path):
        # older runners journaled a lease granting items to a worker;
        # until the worker *starts* one it is pending, not in flight — a
        # killed pool must not report leased-but-never-started items as
        # running
        s = spec()
        journal = start_journal(tmp_path / "pool.jsonl", s)
        journal.append({"type": "lease", "worker": 0,
                        "items": ["s27/000", "s27/001"]})
        journal.append({"type": "item_started", "item": "s27/000",
                        "attempt": 1, "pid": 9, "worker": 0})
        journal.close()
        status = CampaignRunner.status(str(tmp_path / "pool.jsonl"))
        assert status["in_flight"] == ["s27/000"]

    def test_interrupted_item_leaves_in_flight(self, tmp_path):
        s = spec()
        journal = start_journal(tmp_path / "int.jsonl", s)
        journal.append({"type": "item_started", "item": "s27/000",
                        "attempt": 1, "pid": 9, "worker": 0})
        journal.append({"type": "item_interrupted", "item": "s27/000",
                        "attempt": 1, "worker": 0})
        journal.close()
        status = CampaignRunner.status(str(tmp_path / "int.jsonl"))
        assert status["in_flight"] == []


class TestKilledWriter:
    def test_torn_tail_mid_write_is_tolerated(self, tmp_path):
        s = spec()
        path = tmp_path / "torn.jsonl"
        journal = start_journal(path, s)
        journal.append({"type": "item_started", "item": "s27/000",
                        "attempt": 1, "pid": 1, "worker": 0})
        journal.close()
        with open(path, "a") as handle:  # SIGKILL mid-append
            handle.write('{"type": "item_done", "item": "s27/0')
        status = CampaignRunner.status(str(path))
        assert status["in_flight"] == ["s27/000"]
        assert status["done"] == 0

    def test_status_failed_counts(self, tmp_path):
        s = spec()
        journal = start_journal(tmp_path / "f.jsonl", s)
        for attempt in (1, 2, 3):
            journal.append({"type": "item_failed", "item": "s27/001",
                            "attempt": attempt, "error": "boom"})
        journal.close()
        status = CampaignRunner.status(str(tmp_path / "f.jsonl"))
        assert status["failed"] == 1


class TestDamagedJournals:
    def test_missing_journal_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            CampaignRunner.status(str(tmp_path / "absent.jsonl"))

    def test_headerless_journal_raises(self, tmp_path):
        path = tmp_path / "headerless.jsonl"
        path.write_text(json.dumps({"type": "item_started",
                                    "item": "s27/000"}) + "\n")
        with pytest.raises(CampaignError, match="no campaign header"):
            CampaignRunner.status(str(path))

    def test_corrupt_line_raises(self, tmp_path):
        s = spec()
        path = tmp_path / "corrupt.jsonl"
        journal = start_journal(path, s)
        journal.close()
        with open(path, "a") as handle:
            handle.write("garbage but newline-terminated\n")
        with pytest.raises(CampaignError, match="corrupt"):
            CampaignRunner.status(str(path))

    def test_wrong_schema_raises(self, tmp_path):
        path = tmp_path / "foreign.jsonl"
        path.write_text(json.dumps({
            "type": "campaign", "schema": "someone-elses/v9",
            "spec": {"circuits": ["s27"]},
        }) + "\n")
        with pytest.raises(CampaignError, match="schema"):
            CampaignRunner.status(str(path))
