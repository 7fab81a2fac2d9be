"""Cross-fault state knowledge for sequential ATPG.

HITEC's key economy (Rudnick & Patel, DAC 1995) is that work spent on one
fault's time-frame-zero state pays off across the whole fault list: a
state proven justifiable (with the input sequence that reaches it) or
proven unjustifiable is a fact about the *circuit*, not about the fault
that first raised the question.  :class:`StateKnowledge` is the per-circuit
store of those facts, shared by every engine a run builds:

* **(a) justified states** — cared flip-flop assignments together with an
  input sequence that produces them starting from the all-unknown state.
  Because three-valued simulation from the all-X state is conservative,
  a sequence that establishes the assignment from all-X establishes it
  from *every* concrete start state, so reuse is start-state independent.
* **(b) unjustifiable states** — assignments proven unreachable, either
  absolutely (the reverse-time search exhausted with no bound biting) or
  within a recorded frame depth (the depth bound was the only thing that
  bit).  Budget aborts (backtrack/time limits, enumeration truncation)
  are never recorded: they prove nothing.

Lookups use assignment subsumption, both ways sound:

* a stored *justified* assignment ``K`` answers a query ``Q`` when
  ``K ⊇ Q`` — the stored sequence pins every flip-flop ``Q`` cares about
  to the required value (and possibly more);
* a stored *unjustifiable* assignment ``K`` answers a query ``Q`` when
  ``K ⊆ Q`` — any state satisfying ``Q`` would also satisfy the provably
  unreachable ``K``.  Depth-bounded proofs additionally require the
  stored depth to cover the query's frame bound.

Facts are only valid for the circuit *and input-constraint environment*
they were proven under, so every store carries a fingerprint and refuses
to merge with a store of a different fingerprint.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

#: Serialization schema identifier (see :mod:`repro.knowledge.persist`).
KNOWLEDGE_SCHEMA = "repro-knowledge/v1"

#: Canonical hashable form of a cared flip-flop assignment.
StateKey = Tuple[Tuple[str, int], ...]


class KnowledgeError(RuntimeError):
    """A knowledge document or merge attempt is invalid."""


def state_key(required: Mapping[str, int]) -> StateKey:
    """Canonical key for a cared assignment {ff net name: 0/1}."""
    return tuple(sorted(required.items()))


def constraints_fingerprint(constraints: Any) -> str:
    """Stable fingerprint of an input-constraint environment.

    ``None`` (or a trivial :class:`~repro.atpg.constraints.InputConstraints`)
    fingerprints as ``"unconstrained"``; anything else folds the fixed-pin
    assignments and hold-pin set into a canonical string.
    """
    if constraints is None or getattr(constraints, "is_trivial", False):
        return "unconstrained"
    fixed = ",".join(
        f"{name}={value}" for name, value in sorted(constraints.fixed.items())
    )
    hold = ",".join(sorted(constraints.hold))
    return f"fixed[{fixed}]hold[{hold}]"


def model_fingerprint(base: str, fault_model: str) -> str:
    """Fold the fault model into a constraint-environment fingerprint.

    Justified-state facts mined under one fault model must not seed runs
    targeting another (the environments differ even when constraints
    agree).  Stuck-at — the model every existing sidecar was mined
    under — keeps the bare historical tag, so those sidecars stay valid.
    """
    if fault_model == "stuck_at":
        return base
    return f"{base}|model[{fault_model}]"


class StateKnowledge:
    """Per-circuit store of proven state-justification facts.

    Args:
        circuit: circuit name the facts belong to.
        fingerprint: input-constraint environment fingerprint (see
            :func:`constraints_fingerprint`); facts proven under one
            environment are not reused under another.
        max_entries: cap on stored justified / unjustifiable assignments
            (each); oldest entries are evicted first.
    """

    def __init__(
        self,
        circuit: str = "",
        fingerprint: str = "unconstrained",
        max_entries: int = 4096,
    ) -> None:
        self.circuit = circuit
        self.fingerprint = fingerprint
        self.max_entries = max(1, int(max_entries))
        #: (a) assignment -> justifying sequence (from the all-X state)
        self.justified: Dict[StateKey, List[List[int]]] = {}
        #: (b) assignment -> proof depth (``None`` = absolute proof)
        self.unjustifiable: Dict[StateKey, Optional[int]] = {}
        #: effectiveness counters, reported into telemetry by the driver
        self.stats: Dict[str, int] = {
            "justified_hits": 0,
            "unjustifiable_hits": 0,
            "misses": 0,
            "stale_hits": 0,
            "records": 0,
            "podem_pruned": 0,
        }

    # -- queries -------------------------------------------------------
    def lookup_justified(
        self, required: Mapping[str, int]
    ) -> Optional[List[List[int]]]:
        """A sequence known to justify ``required`` from all-X, or None."""
        if not required:
            return []
        key = state_key(required)
        vectors = self.justified.get(key)
        if vectors is None:
            want = set(key)
            for stored, seq in self.justified.items():
                if want <= set(stored):
                    vectors = seq
                    break
        if vectors is None:
            self.stats["misses"] += 1
            return None
        self.stats["justified_hits"] += 1
        return [list(vec) for vec in vectors]

    def lookup_unjustifiable(
        self, required: Mapping[str, int], max_depth: Optional[int] = None
    ) -> Optional[str]:
        """Check whether ``required`` is known unreachable.

        Returns ``"exhausted"`` when an absolute proof applies,
        ``"bounded"`` when a depth-limited proof covers ``max_depth``
        (only consulted when ``max_depth`` is given), and ``None`` when
        nothing is known.  Does not count a miss — callers usually probe
        (b) right after missing (a).
        """
        if not required:
            return None
        want = set(state_key(required))
        verdict: Optional[str] = None
        for stored, depth in self.unjustifiable.items():
            if not set(stored) <= want:
                continue
            if depth is None:
                verdict = "exhausted"
                break
            if max_depth is not None and depth >= max_depth:
                verdict = "bounded"
        if verdict is not None:
            self.stats["unjustifiable_hits"] += 1
        return verdict

    # -- recording -----------------------------------------------------
    def record_justified(
        self, required: Mapping[str, int], vectors: Iterable[Iterable[int]]
    ) -> bool:
        """Record a sequence proven to justify ``required`` from all-X.

        Returns True when the store changed (a new fact, or a shorter
        sequence for a known one).
        """
        if not required:
            return False
        key = state_key(required)
        seq = [list(vec) for vec in vectors]
        known = self.justified.get(key)
        recorded = known is None or len(seq) < len(known)
        if recorded:
            self._evict(self.justified)
            self.justified[key] = seq
            self.stats["records"] += 1
        # a justified state can never also be unjustifiable; drop any
        # stale subsumed claim defensively (should not happen for sound
        # recorders, but the store must never serve contradictions)
        self.unjustifiable.pop(key, None)
        return recorded

    def record_unjustifiable(
        self, required: Mapping[str, int], depth: Optional[int]
    ) -> bool:
        """Record a proof that ``required`` is unreachable.

        ``depth=None`` records an absolute proof (search exhausted with no
        bound biting); an integer records a proof valid for frame bounds
        up to ``depth``.  Never call this for budget aborts.  Returns True
        when the store changed (new fact or strictly stronger proof).
        """
        if not required:
            return False
        key = state_key(required)
        if key in self.justified:
            return False  # contradiction guard: the justified fact wins
        if key in self.unjustifiable:
            known = self.unjustifiable[key]
            if known is None:
                return False  # already an absolute proof
            if depth is not None and depth <= known:
                return False  # weaker than the proof already stored
            self.unjustifiable[key] = depth
            return True
        self._evict(self.unjustifiable)
        self.unjustifiable[key] = depth
        self.stats["records"] += 1
        return True

    def _evict(self, table: Dict[StateKey, Any]) -> None:
        while len(table) >= self.max_entries:
            table.pop(next(iter(table)))

    # -- aggregation ---------------------------------------------------
    def __len__(self) -> int:
        return len(self.justified) + len(self.unjustifiable)

    def merge(self, other: "StateKnowledge") -> None:
        """Union another store's facts into this one.

        Justified entries keep the shorter sequence; unjustifiable
        entries keep the stronger proof (absolute beats any depth, larger
        depth beats smaller).  Raises
        :class:`KnowledgeError` when the stores describe different
        circuits or constraint environments.
        """
        if other.circuit and self.circuit and other.circuit != self.circuit:
            raise KnowledgeError(
                f"cannot merge knowledge for {other.circuit!r} into "
                f"{self.circuit!r}"
            )
        if other.fingerprint != self.fingerprint:
            raise KnowledgeError(
                "cannot merge knowledge proven under constraint environment "
                f"{other.fingerprint!r} into {self.fingerprint!r}"
            )
        for key, seq in other.justified.items():
            self.record_justified(dict(key), seq)
        for key, depth in other.unjustifiable.items():
            self.record_unjustifiable(dict(key), depth)

    # -- serialization -------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready ``repro-knowledge/v1`` document for this store."""
        return {
            "schema": KNOWLEDGE_SCHEMA,
            "circuit": self.circuit,
            "fingerprint": self.fingerprint,
            "justified": [
                {"state": [list(pair) for pair in key], "vectors": seq}
                for key, seq in sorted(self.justified.items())
            ],
            "unjustifiable": [
                {"state": [list(pair) for pair in key], "depth": depth}
                for key, depth in sorted(self.unjustifiable.items())
            ],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "StateKnowledge":
        """Load a ``repro-knowledge/v1`` document; counters start at zero.

        Keys other than the facts are ignored, so documents written by
        older versions, with keys since removed, still load.
        """
        if not isinstance(data, Mapping):
            raise KnowledgeError("knowledge document must be a JSON object")
        schema = data.get("schema")
        if schema != KNOWLEDGE_SCHEMA:
            raise KnowledgeError(
                f"knowledge schema must be {KNOWLEDGE_SCHEMA!r}, got "
                f"{schema!r}"
            )
        store = cls(
            circuit=str(data.get("circuit", "")),
            fingerprint=str(data.get("fingerprint", "unconstrained")),
        )
        for entry in data.get("justified", []):
            state = {str(name): int(val) for name, val in entry["state"]}
            store.justified[state_key(state)] = [
                [int(v) for v in vec] for vec in entry["vectors"]
            ]
        for entry in data.get("unjustifiable", []):
            state = {str(name): int(val) for name, val in entry["state"]}
            depth = entry.get("depth")
            store.unjustifiable[state_key(state)] = (
                None if depth is None else int(depth)
            )
        return store

    def snapshot_stats(self) -> Dict[str, int]:
        """Copy of the effectiveness counters (for delta accounting)."""
        return dict(self.stats)
