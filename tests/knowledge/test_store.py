"""Unit tests for the StateKnowledge store semantics.

Both subsumption directions, the proof-strength ordering on
unjustifiable entries, contradiction guards, eviction bounds, and the
merge rules — these are the properties docs/KNOWLEDGE.md promises and the
ATPG engines rely on for soundness.
"""

import pytest

from repro.knowledge import (
    KNOWLEDGE_SCHEMA,
    KnowledgeError,
    StateKnowledge,
    state_key,
)


def make_store(**kwargs) -> StateKnowledge:
    return StateKnowledge(circuit="unit", **kwargs)


class TestJustifiedLookup:
    def test_exact_hit_returns_a_copy(self):
        store = make_store()
        store.record_justified({"q0": 1}, [[0, 1], [1, 0]])
        seq = store.lookup_justified({"q0": 1})
        assert seq == [[0, 1], [1, 0]]
        seq[0][0] = 9  # mutating the answer must not corrupt the store
        assert store.lookup_justified({"q0": 1}) == [[0, 1], [1, 0]]

    def test_superset_subsumes_query(self):
        """A sequence pinning MORE flip-flops answers a weaker query."""
        store = make_store()
        store.record_justified({"q0": 1, "q1": 0}, [[1]])
        assert store.lookup_justified({"q0": 1}) == [[1]]
        assert store.stats["justified_hits"] == 1

    def test_subset_does_not_subsume_query(self):
        """A sequence pinning FEWER flip-flops proves nothing extra."""
        store = make_store()
        store.record_justified({"q0": 1}, [[1]])
        assert store.lookup_justified({"q0": 1, "q1": 0}) is None
        assert store.stats["misses"] == 1

    def test_conflicting_value_is_not_a_hit(self):
        store = make_store()
        store.record_justified({"q0": 1}, [[1]])
        assert store.lookup_justified({"q0": 0}) is None

    def test_empty_requirement_is_trivially_justified(self):
        assert make_store().lookup_justified({}) == []

    def test_shorter_sequence_replaces_longer(self):
        store = make_store()
        store.record_justified({"q0": 1}, [[0], [1], [1]])
        store.record_justified({"q0": 1}, [[1]])
        assert store.lookup_justified({"q0": 1}) == [[1]]
        # and a longer one never displaces the shorter one
        store.record_justified({"q0": 1}, [[0], [1]])
        assert store.lookup_justified({"q0": 1}) == [[1]]


class TestUnjustifiableLookup:
    def test_absolute_proof_answers_any_depth(self):
        store = make_store()
        store.record_unjustifiable({"q0": 1, "q1": 1}, None)
        assert store.lookup_unjustifiable({"q0": 1, "q1": 1}) == "exhausted"
        assert (
            store.lookup_unjustifiable({"q0": 1, "q1": 1}, max_depth=999)
            == "exhausted"
        )

    def test_subset_subsumes_query(self):
        """If q0=1 alone is unreachable, so is q0=1 plus anything else."""
        store = make_store()
        store.record_unjustifiable({"q0": 1}, None)
        assert (
            store.lookup_unjustifiable({"q0": 1, "q1": 0}) == "exhausted"
        )

    def test_superset_does_not_subsume_query(self):
        store = make_store()
        store.record_unjustifiable({"q0": 1, "q1": 1}, None)
        assert store.lookup_unjustifiable({"q0": 1}) is None

    def test_depth_bounded_proof_respects_query_depth(self):
        store = make_store()
        store.record_unjustifiable({"q0": 1}, 3)
        assert store.lookup_unjustifiable({"q0": 1}, max_depth=2) == "bounded"
        assert store.lookup_unjustifiable({"q0": 1}, max_depth=3) == "bounded"
        # a deeper search might still succeed: no verdict
        assert store.lookup_unjustifiable({"q0": 1}, max_depth=4) is None
        # and with no depth given, bounded proofs are never consulted
        assert store.lookup_unjustifiable({"q0": 1}) is None

    def test_proof_strength_ordering(self):
        store = make_store()
        store.record_unjustifiable({"q0": 1}, 2)
        store.record_unjustifiable({"q0": 1}, 1)  # weaker: ignored
        assert store.unjustifiable[state_key({"q0": 1})] == 2
        store.record_unjustifiable({"q0": 1}, 5)  # stronger: replaces
        assert store.unjustifiable[state_key({"q0": 1})] == 5
        store.record_unjustifiable({"q0": 1}, None)  # absolute: wins
        assert store.unjustifiable[state_key({"q0": 1})] is None
        store.record_unjustifiable({"q0": 1}, 7)  # cannot demote absolute
        assert store.unjustifiable[state_key({"q0": 1})] is None


class TestContradictionGuards:
    def test_justified_fact_blocks_unjustifiable_claim(self):
        store = make_store()
        store.record_justified({"q0": 1}, [[1]])
        store.record_unjustifiable({"q0": 1}, None)
        assert state_key({"q0": 1}) not in store.unjustifiable
        assert store.lookup_justified({"q0": 1}) == [[1]]

    def test_justified_fact_evicts_stale_unjustifiable_claim(self):
        store = make_store()
        store.record_unjustifiable({"q0": 1}, 3)
        store.record_justified({"q0": 1}, [[1], [0]])
        assert state_key({"q0": 1}) not in store.unjustifiable
        assert store.lookup_unjustifiable({"q0": 1}, max_depth=1) is None


class TestBounds:
    def test_justified_table_evicts_oldest(self):
        store = make_store(max_entries=2)
        store.record_justified({"q0": 1}, [[1]])
        store.record_justified({"q1": 1}, [[0]])
        store.record_justified({"q2": 1}, [[1]])
        assert len(store.justified) == 2
        assert state_key({"q0": 1}) not in store.justified


class TestMergeAndSerialization:
    def test_roundtrip_preserves_facts_and_resets_stats(self):
        store = make_store()
        store.record_justified({"q0": 1}, [[1], [0]])
        store.record_unjustifiable({"q1": 1}, None)
        store.record_unjustifiable({"q2": 1, "q0": 0}, 4)
        doc = store.to_dict()
        assert doc["schema"] == KNOWLEDGE_SCHEMA
        clone = StateKnowledge.from_dict(doc)
        assert clone.circuit == "unit"
        assert clone.justified == store.justified
        assert clone.unjustifiable == store.unjustifiable
        assert all(v == 0 for v in clone.stats.values())

    def test_from_dict_rejects_wrong_schema(self):
        with pytest.raises(KnowledgeError):
            StateKnowledge.from_dict({"schema": "repro-knowledge/v0"})

    def test_merge_takes_strongest_of_each_fact(self):
        a = make_store()
        a.record_justified({"q0": 1}, [[1], [0]])
        a.record_unjustifiable({"q1": 1}, 2)
        b = make_store()
        b.record_justified({"q0": 1}, [[1]])  # shorter
        b.record_unjustifiable({"q1": 1}, None)  # absolute
        b.record_unjustifiable({"q2": 1}, 3)  # new
        a.merge(b)
        assert a.lookup_justified({"q0": 1}) == [[1]]
        assert a.unjustifiable[state_key({"q1": 1})] is None
        assert a.unjustifiable[state_key({"q2": 1})] == 3

    def test_merge_rejects_other_circuit_or_fingerprint(self):
        a = make_store()
        with pytest.raises(KnowledgeError):
            a.merge(StateKnowledge(circuit="other"))
        with pytest.raises(KnowledgeError):
            a.merge(
                StateKnowledge(circuit="unit", fingerprint="fixed[a=0]hold[]")
            )

    def test_merge_is_commutative_on_fact_sets(self):
        def populated(order):
            s = make_store()
            for required, depth in order:
                s.record_unjustifiable(required, depth)
            return s

        facts = [({"q0": 1}, 3), ({"q1": 0}, None), ({"q2": 1}, 1)]
        left = populated(facts)
        right = populated(list(reversed(facts)))
        left_clone = StateKnowledge.from_dict(left.to_dict())
        left_clone.merge(right)
        right.merge(left)
        assert left_clone.unjustifiable == right.unjustifiable
