"""Campaign knowledge flow: sidecar persistence, resume, and preload."""

import json
import os

from repro.campaign import CampaignRunner, CampaignSpec, read_events
from repro.knowledge import load_knowledge

# the HITEC baseline, one frame deep, proves facts on both circuits; a
# GA pass justifies from the current state and proves none
SPEC = dict(
    circuits=("s27", "s298"),
    name="knowledge-drill",
    seed=11,
    shard_size=6,
    passes=1,
    fault_limit=12,
    baseline=True,
    justify_depth=1,
)


def run_campaign(tmp_path, name, **overrides):
    journal = str(tmp_path / f"{name}.jsonl")
    spec = CampaignSpec(**{**SPEC, **overrides})
    result = CampaignRunner(spec, journal).run()
    return result, journal


class TestKnowledgeSidecar:
    def test_run_writes_sidecar_and_journal_event(self, tmp_path):
        result, journal = run_campaign(tmp_path, "with")
        sidecar = os.path.splitext(journal)[0] + ".knowledge.json"
        assert os.path.exists(sidecar)
        stores = load_knowledge(sidecar)
        assert stores, "campaign learned nothing on two circuits"
        for name, store in stores.items():
            assert store.circuit == name
            assert len(store)
        events = [e for e in read_events(journal) if e["type"] == "knowledge"]
        assert len(events) == 1
        assert events[0]["path"] == sidecar
        assert events[0]["entries"] == {
            name: len(store) for name, store in stores.items()
        }

    def test_disabled_knowledge_writes_no_sidecar(self, tmp_path):
        result, journal = run_campaign(tmp_path, "off", knowledge=False)
        sidecar = os.path.splitext(journal)[0] + ".knowledge.json"
        assert not os.path.exists(sidecar)
        assert result.knowledge == {}
        assert "knowledge" not in [e["type"] for e in read_events(journal)]

    def test_resumed_campaign_reproduces_sidecar_exactly(self, tmp_path):
        reference, ref_journal = run_campaign(tmp_path, "ref")
        ref_stores = load_knowledge(
            os.path.splitext(ref_journal)[0] + ".knowledge.json"
        )
        # replay a truncated journal: planning events plus a few results,
        # exactly what survives a mid-campaign kill
        full_events = read_events(ref_journal)
        partial = str(tmp_path / "partial.jsonl")
        with open(partial, "w") as handle:
            for event in full_events:
                if event["type"] in ("campaign", "items"):
                    handle.write(json.dumps(event) + "\n")
            done = [e for e in full_events if e["type"] == "item_done"]
            for event in done[: len(done) // 2]:
                handle.write(json.dumps(event) + "\n")
        resumed = CampaignRunner.resume(partial)
        assert resumed.fault_coverage == reference.fault_coverage
        resumed_stores = load_knowledge(
            os.path.splitext(partial)[0] + ".knowledge.json"
        )
        assert sorted(resumed_stores) == sorted(ref_stores)
        for name in ref_stores:
            assert (
                resumed_stores[name].to_dict() == ref_stores[name].to_dict()
            ), name

    def test_preloaded_sidecar_keeps_coverage_and_registers_hits(
        self, tmp_path
    ):
        cold, cold_journal = run_campaign(tmp_path, "cold")
        sidecar = os.path.splitext(cold_journal)[0] + ".knowledge.json"
        warm, _ = run_campaign(
            tmp_path, "warm", knowledge_file=sidecar
        )
        assert warm.items_failed == 0
        assert warm.fault_coverage >= cold.fault_coverage
        # the preloaded facts must register as lookup hits
        used = (
            warm.knowledge_stats.get("justified_hits", 0)
            + warm.knowledge_stats.get("unjustifiable_hits", 0)
        )
        assert used > 0, warm.knowledge_stats

    def test_missing_preload_file_degrades_gracefully(self, tmp_path):
        result, _ = run_campaign(
            tmp_path, "orphan",
            knowledge_file=str(tmp_path / "nonexistent.json"),
        )
        assert result.items_failed == 0
        assert result.fault_coverage > 0
