"""Journal durability, torn-line tolerance, and replay semantics."""

import json

import pytest

import repro.campaign.journal as journal_module
from repro.campaign import (
    JOURNAL_SCHEMA,
    CampaignError,
    Journal,
    JournalState,
    read_events,
)

HEADER = {
    "type": "campaign",
    "schema": JOURNAL_SCHEMA,
    "spec": {"circuits": ["s27"]},
    "spec_hash": "abc",
}


def write_journal(path, events):
    with Journal(str(path)) as journal:
        for event in events:
            journal.append(event)
    return str(path)


class TestJournalWriter:
    def test_appends_one_json_line_per_event(self, tmp_path):
        path = write_journal(tmp_path / "j.jsonl", [HEADER, {"type": "items"}])
        lines = open(path).read().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["type"] == "campaign"

    def test_events_get_timestamps(self, tmp_path):
        clock_value = [100.0]
        journal = Journal(str(tmp_path / "j.jsonl"),
                          clock=lambda: clock_value[0])
        journal.append({"type": "campaign"})
        journal.close()
        assert read_events(journal.path)[0]["ts"] == 100.0

    def test_repairs_torn_tail_before_appending(self, tmp_path):
        path = tmp_path / "j.jsonl"
        write_journal(path, [HEADER])
        with open(path, "a") as handle:
            handle.write('{"type": "item_sta')  # killed mid-write
        with Journal(str(path)) as journal:
            journal.append({"type": "merged", "summary": {}})
        events = read_events(str(path))
        assert [e["type"] for e in events] == ["campaign", "merged"]


@pytest.fixture
def fsyncs(tmp_path, monkeypatch):
    """Lines of ``tmp_path/j.jsonl`` at each ``os.fsync`` the journal
    module makes."""
    seen = []
    real_fsync = journal_module.os.fsync

    def counted(fd):
        real_fsync(fd)
        seen.append(len((tmp_path / "j.jsonl").read_text().splitlines()))

    monkeypatch.setattr(journal_module.os, "fsync", counted)
    return seen


class TestGroupCommit:
    def test_appends_outside_a_group_fsync_each_event(self, tmp_path, fsyncs):
        write_journal(tmp_path / "j.jsonl", [HEADER] + [{"type": "x"}] * 3)
        assert fsyncs == [1, 2, 3, 4]

    def test_a_group_fsyncs_once_at_its_exit(self, tmp_path, fsyncs):
        with Journal(str(tmp_path / "j.jsonl")) as journal:
            journal.append(HEADER)
            with journal.group():
                for n in range(5):
                    journal.append({"type": "item_started", "item": str(n)})
                # written at once, so a killed process loses none of them
                assert len(read_events(journal.path)) == 6
                assert fsyncs == [1]
            assert fsyncs == [1, 6]
            with journal.group():
                pass  # nothing written, nothing to sync
            assert fsyncs == [1, 6]
            journal.append({"type": "merged", "summary": {}})
            assert fsyncs == [1, 6, 7]

    def test_an_exception_in_a_group_still_syncs_its_events(
        self, tmp_path, fsyncs
    ):
        with Journal(str(tmp_path / "j.jsonl")) as journal:
            with pytest.raises(RuntimeError, match="mid-round"):
                with journal.group():
                    journal.append(HEADER)
                    journal.append({"type": "item_started", "item": "a"})
                    raise RuntimeError("mid-round")
            assert fsyncs == [2]
            journal.append({"type": "cancelled"})  # per event again
            assert fsyncs == [2, 3]
        assert [e["type"] for e in read_events(journal.path)] == [
            "campaign", "item_started", "cancelled",
        ]


class TestReadEvents:
    def test_tolerates_torn_final_line(self, tmp_path):
        path = write_journal(tmp_path / "j.jsonl", [HEADER])
        with open(path, "a") as handle:
            handle.write('{"type": "item_done", "item"')
        assert [e["type"] for e in read_events(path)] == ["campaign"]

    def test_rejects_corruption_mid_file(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with open(path, "w") as handle:
            handle.write("not json\n")
            handle.write(json.dumps(HEADER) + "\n")
        with pytest.raises(CampaignError, match="corrupt"):
            read_events(str(path))


class TestReplay:
    def test_requires_campaign_header(self, tmp_path):
        path = write_journal(tmp_path / "j.jsonl", [{"type": "items"}])
        with pytest.raises(CampaignError, match="header"):
            JournalState.replay(path)

    def test_rejects_unknown_schema(self, tmp_path):
        bad = dict(HEADER, schema="other/v2")
        path = write_journal(tmp_path / "j.jsonl", [bad])
        with pytest.raises(CampaignError, match="schema"):
            JournalState.replay(path)

    def test_done_items_first_event_wins(self, tmp_path):
        path = write_journal(tmp_path / "j.jsonl", [
            HEADER,
            {"type": "item_done", "item": "s27/000", "payload": {"v": 1}},
            {"type": "item_done", "item": "s27/000", "payload": {"v": 2}},
        ])
        state = JournalState.replay(path)
        assert state.done["s27/000"] == {"v": 1}

    def test_started_without_terminal_event_stays_in_flight(self, tmp_path):
        path = write_journal(tmp_path / "j.jsonl", [
            HEADER,
            {"type": "item_started", "item": "s27/000", "attempt": 1},
            {"type": "item_started", "item": "s27/001", "attempt": 1},
            {"type": "item_done", "item": "s27/001", "payload": {}},
        ])
        state = JournalState.replay(path)
        assert set(state.started) == {"s27/000"}

    def test_failed_then_done_is_not_failed(self, tmp_path):
        path = write_journal(tmp_path / "j.jsonl", [
            HEADER,
            {"type": "item_failed", "item": "s27/000", "attempt": 1,
             "error": "timeout"},
            {"type": "item_done", "item": "s27/000", "payload": {}},
        ])
        state = JournalState.replay(path)
        assert state.failed == {}
        assert state.attempts["s27/000"] == 1

    def test_catalogue_and_merge_events(self, tmp_path):
        path = write_journal(tmp_path / "j.jsonl", [
            HEADER,
            {"type": "items",
             "catalogue": [{"item": "s27/000", "faults": 8,
                            "fault_hash": "deadbeef"}]},
            {"type": "merged", "summary": {"vectors": 3}},
        ])
        state = JournalState.replay(path)
        assert state.item_hashes == {"s27/000": "deadbeef"}
        assert state.merged == {"vectors": 3}
