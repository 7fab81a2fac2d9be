"""Campaign merge stage: shard results → one graded, compacted test set.

Per-item runs only know their own fault shard; the merge stage restores
the whole-circuit view.  For each circuit it concatenates the accepted
test sequences of every shard (in canonical item order, so the result is
independent of which worker finished first), then re-fault-simulates them
against the circuit's *full* target fault list in a
:class:`~repro.simulation.fault_sim.GradedTestSet` — crediting incidental
cross-shard detections and dropping sequences that no longer add
coverage.  Per-item telemetry reports roll up into one campaign-level
``repro-run-report/v1`` document whose headline numbers are the merged
(cross-credited) truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..knowledge import KnowledgeError, StateKnowledge
from ..simulation.fault_sim import FaultSimulator, GradedTestSet, split_blocks
from ..telemetry import RunReport, merge_run_reports
from .spec import CampaignSpec
from .warm import CampaignWarmState


@dataclass
class CircuitMergeResult:
    """Merged view of one circuit across all of its shards.

    Attributes:
        circuit: circuit specifier.
        vectors: merged test set (kept sequences, concatenated).
        blocks: starting offset of each kept sequence in ``vectors``.
        detected: faults detected by the merged set (names).
        total_faults: size of the circuit's target fault list.
        untestable: faults some shard proved untestable (names).
        dropped_sequences: shard sequences dropped as redundant.
    """

    circuit: str
    vectors: List[List[int]] = field(default_factory=list)
    blocks: List[int] = field(default_factory=list)
    detected: List[str] = field(default_factory=list)
    total_faults: int = 0
    untestable: List[str] = field(default_factory=list)
    dropped_sequences: int = 0

    @property
    def coverage(self) -> float:
        if not self.total_faults:
            return 0.0
        return len(self.detected) / self.total_faults


@dataclass
class CampaignResult:
    """Final outcome of a campaign: per-circuit merges plus the rollup.

    ``knowledge`` holds the per-circuit union of every item's serialized
    state-knowledge store (empty when the spec disables knowledge); the
    runner persists it as a ``repro-knowledge/v1`` sidecar.
    """

    name: str
    spec_hash: str
    circuits: Dict[str, CircuitMergeResult] = field(default_factory=dict)
    report: Optional[RunReport] = None
    items_done: int = 0
    items_failed: int = 0
    wall_time_s: float = 0.0
    knowledge: Dict[str, StateKnowledge] = field(default_factory=dict)
    knowledge_stats: Dict[str, int] = field(default_factory=dict)
    #: runner lifecycle timing: warm / fork / solve / merge wall seconds
    phase_times: Dict[str, float] = field(default_factory=dict)

    @property
    def total_faults(self) -> int:
        return sum(c.total_faults for c in self.circuits.values())

    @property
    def detected(self) -> int:
        return sum(len(c.detected) for c in self.circuits.values())

    @property
    def vectors(self) -> int:
        return sum(len(c.vectors) for c in self.circuits.values())

    @property
    def fault_coverage(self) -> float:
        total = self.total_faults
        return self.detected / total if total else 0.0

    def summary(self) -> str:
        lines = [
            f"campaign {self.name} [{self.spec_hash}]: "
            f"{self.items_done} items done, {self.items_failed} failed, "
            f"wall {self.wall_time_s:.2f}s",
        ]
        for name in sorted(self.circuits):
            c = self.circuits[name]
            lines.append(
                f"  {name:<10s} coverage {100.0 * c.coverage:5.1f}%  "
                f"vectors {len(c.vectors):>5d}  "
                f"untestable {len(c.untestable):>4d}  "
                f"redundant dropped {c.dropped_sequences}"
            )
        lines.append(
            f"  total      coverage {100.0 * self.fault_coverage:.1f}%  "
            f"vectors {self.vectors}"
        )
        return "\n".join(lines)

    def summary_dict(self) -> Dict[str, Any]:
        """Machine-readable digest (journaled by the merge event)."""
        return {
            "name": self.name,
            "spec_hash": self.spec_hash,
            "items_done": self.items_done,
            "items_failed": self.items_failed,
            "phase_times": {
                name: round(seconds, 3)
                for name, seconds in sorted(self.phase_times.items())
            },
            "total_faults": self.total_faults,
            "detected": self.detected,
            "vectors": self.vectors,
            "fault_coverage": round(self.fault_coverage, 6),
            "circuits": {
                name: {
                    "detected": len(c.detected),
                    "total_faults": c.total_faults,
                    "vectors": len(c.vectors),
                    "untestable": len(c.untestable),
                    "dropped_sequences": c.dropped_sequences,
                }
                for name, c in sorted(self.circuits.items())
            },
        }


def _merge_knowledge(
    result: CampaignResult, circuit_name: str, doc: Dict[str, Any]
) -> None:
    """Union one item's serialized knowledge store into the campaign's.

    Invalid or incompatible documents (schema drift, fingerprint
    mismatch) are skipped: knowledge is an accelerator, never a
    correctness dependency, so a bad store must not fail the merge.
    """
    try:
        store = StateKnowledge.from_dict(doc)
        union = result.knowledge.get(circuit_name)
        if union is None:
            result.knowledge[circuit_name] = store
        else:
            union.merge(store)
    except (KnowledgeError, KeyError, TypeError, ValueError):
        pass


def merge_campaign(
    spec: CampaignSpec,
    payloads: Dict[str, Dict[str, Any]],
    warm: CampaignWarmState,
) -> CampaignResult:
    """Merge item payloads (from the journal) into the campaign result.

    ``payloads`` maps item id -> the ``item_done`` payload dict.  Items
    are processed in sorted item-id order, which equals shard order, so
    the merged output is independent of worker scheduling.  ``warm`` is
    the campaign's warm state, built from ``spec``: each circuit's
    compiled form and target faults come from it.
    """
    result = CampaignResult(name=spec.name, spec_hash=spec.spec_hash())
    reports: List[RunReport] = []
    for circuit_name in spec.circuits:
        prefix = f"{circuit_name}/"
        item_ids = sorted(i for i in payloads if i.startswith(prefix))
        sequences: List[List[List[int]]] = []
        untestable: List[str] = []
        for item_id in item_ids:
            payload = payloads[item_id]
            sequences.extend(split_blocks(
                payload.get("vectors") or [], payload.get("blocks") or []
            ))
            untestable.extend(payload.get("untestable") or [])
            if payload.get("report"):
                reports.append(RunReport.from_dict(payload["report"]))
            if payload.get("knowledge"):
                _merge_knowledge(result, circuit_name, payload["knowledge"])
            for key, value in (payload.get("knowledge_stats") or {}).items():
                result.knowledge_stats[key] = (
                    result.knowledge_stats.get(key, 0) + int(value)
                )
        state = warm.circuits[circuit_name]
        merged = CircuitMergeResult(
            circuit=circuit_name,
            total_faults=len(state.faults),
            untestable=sorted(set(untestable)),
        )
        if sequences:
            sim = FaultSimulator(state.cc, width=spec.width)
            tests = GradedTestSet(sim, state.faults)
            for sequence in sequences:
                if not (tests.remaining and tests.apply(sequence)):
                    merged.dropped_sequences += 1
            merged.vectors = tests.vectors
            merged.blocks = tests.blocks
            merged.detected = sorted(str(f) for f in tests.detected)
        result.circuits[circuit_name] = merged
    result.items_done = len(payloads)
    if reports:
        merged_report = merge_run_reports(
            reports, circuit=f"campaign:{spec.name}"
        )
        # overwrite per-item sums with the cross-credited merged truth
        merged_report.total_faults = result.total_faults
        merged_report.detected = result.detected
        merged_report.vectors = result.vectors
        merged_report.fault_coverage = result.fault_coverage
        result.report = merged_report
    return result
