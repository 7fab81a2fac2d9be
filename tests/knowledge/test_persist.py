"""Sidecar persistence: atomic save, tolerant load, fingerprint gating."""

import json
import os

import pytest

from repro.knowledge import (
    KNOWLEDGE_SCHEMA,
    KnowledgeError,
    StateKnowledge,
    load_knowledge,
    load_store_for,
    save_knowledge,
)


def two_stores():
    a = StateKnowledge(circuit="s27")
    a.record_justified({"G5": 1}, [[0, 1, 0, 1]])
    b = StateKnowledge(circuit="s298")
    b.record_unjustifiable({"G10": 1, "G11": 1}, None)
    return {"s27": a, "s298": b}


class TestSidecarRoundtrip:
    def test_save_then_load(self, tmp_path):
        path = str(tmp_path / "campaign.knowledge.json")
        save_knowledge(two_stores(), path)
        loaded = load_knowledge(path)
        assert sorted(loaded) == ["s27", "s298"]
        assert loaded["s27"].lookup_justified({"G5": 1}) == [[0, 1, 0, 1]]
        assert (
            loaded["s298"].lookup_unjustifiable({"G10": 1, "G11": 1})
            == "exhausted"
        )

    def test_save_is_atomic(self, tmp_path):
        path = str(tmp_path / "k.json")
        save_knowledge(two_stores(), path)
        save_knowledge(two_stores(), path)  # overwrite in place
        assert not os.path.exists(path + ".tmp")
        assert load_knowledge(path)

    def test_bare_single_store_document_loads(self, tmp_path):
        store = StateKnowledge(circuit="s27")
        store.record_justified({"G5": 1}, [[1]])
        path = tmp_path / "single.json"
        path.write_text(json.dumps(store.to_dict()))
        loaded = load_knowledge(str(path))
        assert loaded["s27"].lookup_justified({"G5": 1}) == [[1]]

    def test_sidecar_with_seed_pool_loads_and_saves_without_it(
        self, tmp_path
    ):
        """Sidecars from before the GA seed pool was removed still load."""
        document = two_stores()["s27"].to_dict()
        document["seed_pool"] = [[[0, 1, 0, 1]], [[1, 1, 0, 0]]]
        old = tmp_path / "old.json"
        old.write_text(json.dumps(
            {"schema": KNOWLEDGE_SCHEMA, "stores": {"s27": document}}
        ))
        loaded = load_knowledge(str(old))
        assert loaded["s27"].lookup_justified({"G5": 1}) == [[0, 1, 0, 1]]
        path = str(tmp_path / "new.json")
        save_knowledge(loaded, path)
        with open(path) as handle:
            saved = json.load(handle)["stores"]["s27"]
        assert "seed_pool" not in saved
        del document["seed_pool"]
        assert saved == document

    def test_wrong_schema_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "other/v1", "stores": {}}))
        with pytest.raises(KnowledgeError):
            load_knowledge(str(path))


class TestLoadStoreFor:
    def test_selects_matching_circuit(self, tmp_path):
        path = str(tmp_path / "k.json")
        save_knowledge(two_stores(), path)
        store = load_store_for(path, "s27", "unconstrained")
        assert store is not None and store.circuit == "s27"

    def test_none_path_and_missing_circuit(self, tmp_path):
        assert load_store_for(None, "s27", "unconstrained") is None
        path = str(tmp_path / "k.json")
        save_knowledge(two_stores(), path)
        assert load_store_for(path, "s9234", "unconstrained") is None

    def test_fingerprint_mismatch_is_ignored_not_fatal(self, tmp_path):
        constrained = StateKnowledge(
            circuit="s27", fingerprint="fixed[a=0]hold[]"
        )
        constrained.record_unjustifiable({"G5": 1}, None)
        path = str(tmp_path / "k.json")
        save_knowledge({"s27": constrained}, path)
        assert load_store_for(path, "s27", "unconstrained") is None
        assert (
            load_store_for(path, "s27", "fixed[a=0]hold[]") is not None
        )
