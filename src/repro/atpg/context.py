"""Shared per-circuit ATPG state: one context instead of five rebuilds.

Before this module, every layer that touched a circuit — the hybrid
driver, :class:`~repro.atpg.hitec.SequentialTestGenerator`,
:func:`~repro.atpg.justify.justify_state`, the GA justifier, the fault
simulator — independently coerced ``Circuit | CompiledCircuit``,
collapsed the fault universe, and built simulator instances.
:class:`AtpgContext` owns all of that once per circuit:

* the :class:`~repro.simulation.compiled.CompiledCircuit` (compiled on
  demand from a :class:`~repro.circuit.netlist.Circuit`), which itself
  caches the circuit's fixed facts, SCOAP measures among them
  (:func:`~repro.atpg.scoap.cached_testability`);
* the collapsed fault universe (lazy);
* fault-simulator handles, cached by word width;
* the telemetry recorder;
* the optional cross-fault :class:`~repro.knowledge.StateKnowledge` store.

Engines take a context; callers holding only a circuit build one with
``AtpgContext(circuit)``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

from ..circuit.netlist import Circuit
from ..faults.collapse import collapse_faults
from ..faults.model import DEFAULT_FAULT_MODEL, Fault, resolve_fault_model
from ..knowledge import (
    StateKnowledge,
    constraints_fingerprint,
    model_fingerprint,
)
from ..simulation.compiled import CompiledCircuit, compile_circuit
from ..simulation.fault_sim import FaultSimulator
from ..telemetry import NULL_RECORDER, Recorder
from .constraints import InputConstraints, UNCONSTRAINED

#: Anything a context accepts as "the circuit".
CircuitLike = Union[Circuit, CompiledCircuit]


class AtpgContext:
    """Owns every piece of shared per-circuit ATPG state.

    Args:
        circuit: the circuit under test, compiled or not.
        constraints: environment input constraints (``None`` or a trivial
            constraint set both normalise to unconstrained).
        telemetry: shared metrics recorder (defaults to the no-op).
        knowledge: cross-fault state-knowledge store shared by every
            engine built on this context (``None`` disables reuse).
        fault_model: registered fault-model name the context's fault
            universe (and knowledge environment) is built for; defaults
            to stuck-at.
    """

    def __init__(
        self,
        circuit: CircuitLike,
        constraints: Optional[InputConstraints] = None,
        telemetry: Optional[Recorder] = None,
        knowledge: Optional[StateKnowledge] = None,
        fault_model: str = DEFAULT_FAULT_MODEL,
    ) -> None:
        if isinstance(circuit, CompiledCircuit):
            self.cc: CompiledCircuit = circuit
        else:
            self.cc = compile_circuit(circuit)
        self.circuit: Circuit = self.cc.circuit
        self.constraints: InputConstraints = constraints or UNCONSTRAINED
        self.telemetry: Recorder = telemetry or NULL_RECORDER
        self.knowledge = knowledge
        self.fault_model = resolve_fault_model(fault_model).name
        self._faults: Optional[List[Fault]] = None
        self._simulators: Dict[int, FaultSimulator] = {}

    # -- lazy shared artifacts -----------------------------------------
    @property
    def faults(self) -> List[Fault]:
        """The collapsed fault universe, computed once per context."""
        if self._faults is None:
            self._faults = collapse_faults(self.circuit, self.fault_model)
        return list(self._faults)

    @property
    def active_constraints(self) -> Optional[InputConstraints]:
        """The constraints when non-trivial, else ``None`` (engine form)."""
        return None if self.constraints.is_trivial else self.constraints

    @property
    def knowledge_fingerprint(self) -> str:
        """Constraint-environment fingerprint knowledge facts carry.

        The fault model is part of the environment: justified-state
        facts mined under one model must not seed runs targeting
        another.  Stuck-at keeps the historical tag so existing sidecars
        stay valid.
        """
        return model_fingerprint(
            constraints_fingerprint(self.active_constraints),
            self.fault_model,
        )

    def make_knowledge(self) -> StateKnowledge:
        """Attach (and return) a fresh store matching this environment."""
        self.knowledge = StateKnowledge(
            circuit=self.circuit.name,
            fingerprint=self.knowledge_fingerprint,
        )
        return self.knowledge

    # -- derived handles -----------------------------------------------
    def fault_simulator(self, width: int = 64) -> FaultSimulator:
        """A fault simulator for this circuit, cached by word width."""
        sim = self._simulators.get(width)
        if sim is None:
            sim = FaultSimulator(self.cc, width=width, telemetry=self.telemetry)
            self._simulators[width] = sim
        return sim
