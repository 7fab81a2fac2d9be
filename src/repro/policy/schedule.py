"""Turning the policy's predictions into a per-circuit plan.

A :class:`PolicyPlan` gives each fault of one circuit its start pass:
the pass the ``pass`` model predicts will resolve it, clamped to the
schedule; earlier passes skip the fault.  The plan is computed once (at
campaign warm-build time or at driver start), so the targeting loop does
one dictionary lookup per fault and pass.

The **final pass always targets every remaining fault** regardless of
prediction.  That is not a coverage guarantee: a skipped targeting that
would have detected the fault, or whose test would have detected others,
is lost (docs/POLICY.md gives measurements).

Circuits outside the policy's trained family get no plan at all
(:func:`build_plan` returns ``None``) — the driver then behaves exactly
as if no policy were supplied.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from ..faults.model import Fault
from ..simulation.compiled import CompiledCircuit
from .features import fault_features, feature_vector
from .model import FaultPolicy


@dataclass(frozen=True)
class PolicyPlan:
    """Each fault's start pass for one circuit under one policy.

    Attributes:
        circuit: the circuit the plan was built for.
        final_pass: the schedule's last pass, which targets every fault.
        start_passes: ``str(fault)`` -> first pass allowed to target it.
    """

    circuit: str
    final_pass: int
    start_passes: Dict[str, int]

    def eligible(self, fault: Fault, pass_number: int) -> bool:
        """May ``pass_number`` target ``fault``?

        The final pass may always, and so may any pass for a fault the
        plan does not know.
        """
        if pass_number >= self.final_pass:
            return True
        start = self.start_passes.get(str(fault))
        return start is None or pass_number >= start


def build_plan(
    policy: FaultPolicy,
    cc: CompiledCircuit,
    faults: Sequence[Fault],
    final_pass: int,
) -> Optional[PolicyPlan]:
    """Precompute a circuit's plan, or ``None`` outside the family.

    Deterministic: predictions are pure functions of the artifact and
    the circuit's static features.
    """
    circuit_name = cc.circuit.name
    if not policy.covers(circuit_name):
        return None
    start_passes: Dict[str, int] = {}
    for fault in faults:
        predicted = policy.predict(feature_vector(fault_features(cc, fault)))
        start_passes[str(fault)] = min(max(int(round(predicted)), 1), final_pass)
    return PolicyPlan(circuit_name, final_pass, start_passes)
