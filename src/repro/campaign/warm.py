"""Warm-fork state: build per-circuit ATPG artifacts once, before forking.

Per-fault work items must not re-derive their circuit's fixed artifacts:
resolve and compile the circuit, compute SCOAP testability (cached on the
compiled form), collapse the fault universe, parse the knowledge preload,
and build the policy plan.  For per-fault items that fixed cost dwarfs
the ATPG itself.  So :class:`~repro.campaign.runner.CampaignRunner` calls
:meth:`CampaignWarmState.build` once, in the parent, before anything else,
and reads every circuit from it: the item catalogue
(:func:`~repro.campaign.queue.build_items`), every item it runs inline or
in a worker it forks (:func:`~repro.campaign.worker.worker_main`), and
the merge (:func:`~repro.campaign.merge.merge_campaign`).  Forked
children inherit the state, and every compiled artifact it references,
copy-on-write.  :func:`~repro.campaign.worker.run_item` reads everything
it needs from the state it is handed and derives nothing itself, and
this is the only campaign module that loads a knowledge sidecar or a
policy artifact.

Keeping the *same* ``Circuit`` object alive matters more than it looks:
:func:`~repro.simulation.compiled.compile_circuit` caches by object
identity, so every downstream layer that accepts a ``Circuit`` (the
driver, its fault simulators) transparently reuses the warm compile
without any plumbing.

Every artifact the state holds but one is a deterministic function of
the spec.  The exception is each circuit's memo of single-step JUSTIFY
searches (:class:`~repro.atpg.justify.JustifySteps`), built empty and
filled by the items a process runs: inline, one memo serves every item;
each forked worker inherits it empty and fills its own copy.  A memo's
replays give exactly what fresh searches would, so an item's result
still depends only on the spec and the item, never on which process ran
it or what ran there before.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..atpg.justify import JustifySteps
from ..atpg.scoap import cached_testability
from ..circuit.netlist import Circuit
from ..circuits.resolve import resolve_circuit
from ..faults.model import Fault
from ..knowledge import (
    KnowledgeError,
    StateKnowledge,
    load_store_for,
    model_fingerprint,
)
from ..policy.model import FaultPolicy, PolicyError
from ..policy.schedule import PolicyPlan, build_plan
from ..simulation.compiled import CompiledCircuit, compile_circuit
from .spec import CampaignError, CampaignSpec


@dataclass
class CircuitWarmState:
    """Everything per-item setup would otherwise recompute for a circuit.

    Attributes:
        circuit: the resolved circuit — the canonical object identity all
            compile-cache hits key off.
        cc: its compiled form, SCOAP measures already cached on it.
        faults: the campaign's target list in canonical order
            (:meth:`~repro.campaign.spec.CampaignSpec.faults_for`).
        knowledge_doc: the parsed ``repro-knowledge/v1`` store for this
            circuit from the spec's preload sidecar, or ``None``.  Kept
            serialized: each item deserializes its own private copy, so
            warm preloading cannot leak state between items.
        policy_plan: the precomputed
            :class:`~repro.policy.schedule.PolicyPlan` for this circuit
            under the spec's ``policy_file``, or ``None`` (no policy,
            or the circuit is outside the policy's trained family —
            items then run the static schedule).  The plan is immutable
            and deterministic, so sharing one object across items is
            safe.
        justify_steps: the memo of single-step JUSTIFY searches that
            every item run in this process reads and extends, built
            empty.  It changes no result, only what an item searches
            afresh; it is never journaled or merged, and no two threads
            may share it.
    """

    circuit: Circuit
    cc: CompiledCircuit
    faults: List[Fault]
    knowledge_doc: Optional[Dict[str, Any]] = None
    policy_plan: Optional[PolicyPlan] = None
    justify_steps: JustifySteps = field(default_factory=JustifySteps)

    def knowledge_store(self) -> Optional[StateKnowledge]:
        """A fresh, private preloaded store (or None without a preload)."""
        if self.knowledge_doc is None:
            return None
        return StateKnowledge.from_dict(self.knowledge_doc)


class CampaignWarmState:
    """Per-circuit warm artifacts for one campaign spec."""

    def __init__(self, circuits: Dict[str, CircuitWarmState]) -> None:
        self.circuits = circuits

    @classmethod
    def build(cls, spec: CampaignSpec) -> "CampaignWarmState":
        """Resolve, compile, and warm every circuit the spec targets."""
        circuits: Dict[str, CircuitWarmState] = {}
        policy: Optional[FaultPolicy] = None
        if spec.policy_file:
            # unlike the knowledge preload, the policy affects results
            # (the spec hashes it), so an unreadable artifact is a
            # campaign failure, not a silently skipped accelerator
            try:
                policy = FaultPolicy.load(spec.policy_file)
            except PolicyError as exc:
                raise CampaignError(str(exc)) from exc
        for name in spec.circuits:
            circuit = resolve_circuit(name)
            cc = compile_circuit(circuit)
            cached_testability(cc)  # before the fork, so every worker inherits it
            faults = spec.faults_for(circuit)
            doc: Optional[Dict[str, Any]] = None
            if spec.knowledge and spec.knowledge_file:
                try:
                    store = load_store_for(
                        spec.knowledge_file,
                        circuit.name,
                        model_fingerprint("unconstrained", spec.fault_model),
                    )
                except (OSError, KnowledgeError):
                    store = None  # an accelerator, never a failed campaign
                if store is not None:
                    doc = store.to_dict()
            plan: Optional[PolicyPlan] = None
            if policy is not None:
                plan = build_plan(policy, cc, faults, final_pass=spec.passes)
            circuits[name] = CircuitWarmState(
                circuit=circuit,
                cc=cc,
                faults=faults,
                knowledge_doc=doc,
                policy_plan=plan,
            )
        return cls(circuits)
