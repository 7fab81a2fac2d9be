"""Cross-fault state-knowledge layer (HITEC's search economy, made durable).

Public surface:

* :class:`~repro.knowledge.store.StateKnowledge` — per-circuit store of
  justified states (with sequences) and proven-unjustifiable states;
* :func:`~repro.knowledge.store.state_key` /
  :func:`~repro.knowledge.store.constraints_fingerprint` — canonical keys;
* :func:`~repro.knowledge.persist.save_knowledge` /
  :func:`~repro.knowledge.persist.load_knowledge` /
  :func:`~repro.knowledge.persist.load_store_for` — versioned
  ``repro-knowledge/v1`` sidecar persistence.

See ``docs/KNOWLEDGE.md`` for the store semantics, the persistence
format, the merge rules, and the soundness argument behind pruning on
proven-unjustifiable states.
"""

from .persist import load_knowledge, load_store_for, save_knowledge
from .store import (
    KNOWLEDGE_SCHEMA,
    KnowledgeError,
    StateKnowledge,
    constraints_fingerprint,
    model_fingerprint,
    state_key,
)

__all__ = [
    "KNOWLEDGE_SCHEMA",
    "KnowledgeError",
    "StateKnowledge",
    "constraints_fingerprint",
    "model_fingerprint",
    "state_key",
    "load_knowledge",
    "load_store_for",
    "save_knowledge",
]
