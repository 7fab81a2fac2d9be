"""Turning policy predictions into a concrete per-circuit plan.

A :class:`PolicyPlan` holds one :class:`FaultPlan` per fault of one
circuit, precomputed once (at campaign warm-build time or at driver
start) so the hot targeting loop only does dictionary lookups:

* **ordering** — faults sort cheap-first by the cost model, predicted
  futile faults last, ties keeping canonical order (stable sort);
* **pass gating** — each fault starts at the pass predicted to resolve
  it; earlier passes skip it.  The **final pass always targets every
  remaining fault** regardless of prediction (the mop-up): any fault the
  model wrote off still gets the schedule's largest-budget pass.  That
  is not a coverage guarantee: a skipped targeting that would have
  detected the fault, or whose test would have detected others, is
  lost (docs/POLICY.md).

Circuits outside the policy's trained family get no plan at all
(:func:`build_plan` returns ``None``) — the driver then behaves exactly
as if no policy were supplied.  See ``docs/POLICY.md``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..faults.model import Fault
from ..simulation.compiled import CompiledCircuit
from .features import fault_features, feature_vector
from .model import FaultPolicy


@dataclass
class FaultPlan:
    """Per-fault scheduling decisions.

    Attributes:
        start_pass: first pass allowed to target the fault (earlier
            passes skip it; the final pass ignores this).
        deferred: predicted futile — pushed to the final mop-up pass.
        order_key: cheap-first sort key (predicted cost).
    """

    start_pass: int
    deferred: bool
    order_key: float


class PolicyPlan:
    """All per-fault decisions for one circuit under one policy."""

    def __init__(
        self,
        circuit: str,
        final_pass: int,
        plans: Dict[str, FaultPlan],
        fingerprint: str = "",
        reorder: bool = True,
    ) -> None:
        self.circuit = circuit
        self.final_pass = final_pass
        self.plans = plans
        self.fingerprint = fingerprint
        self.reorder = reorder

    def plan_for(self, fault: Fault) -> Optional[FaultPlan]:
        return self.plans.get(str(fault))

    def eligible(self, fault: Fault, pass_number: int) -> bool:
        """May ``pass_number`` target ``fault``?

        The final pass may always, so no fault goes untargeted.  Coverage
        can still be lost: a deferred fault gets only the mop-up's
        attempt (docs/POLICY.md).
        """
        if pass_number >= self.final_pass:
            return True
        plan = self.plans.get(str(fault))
        return plan is None or pass_number >= plan.start_pass

    def order(self, faults: Sequence[Fault]) -> List[Fault]:
        """Cheap-first stable ordering; unplanned faults keep position
        ahead of deferred ones, deferred faults go last."""

        def key(fault: Fault) -> tuple:
            plan = self.plans.get(str(fault))
            if plan is None:
                return (0, math.inf)
            return (1 if plan.deferred else 0, plan.order_key)

        return sorted(faults, key=key)

    def deferred_count(self, faults: Sequence[Fault]) -> int:
        """How many of ``faults`` the plan defers to the final pass."""
        plans = (self.plans.get(str(fault)) for fault in faults)
        return sum(1 for plan in plans if plan is not None and plan.deferred)


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
    defer_threshold = float(policy.options.get("defer_threshold", 0.25))
    plans: Dict[str, FaultPlan] = {}
    for fault in faults:
        x = feature_vector(fault_features(cc, fault))
        detect_score, resolve_pass, cost = policy.predict(x)
        deferred = detect_score < defer_threshold
        if deferred:
            start = final_pass
        else:
            start = min(max(int(round(resolve_pass)), 1), final_pass)
        plans[str(fault)] = FaultPlan(
            start_pass=start, deferred=deferred, order_key=cost
        )
    return PolicyPlan(
        circuit=circuit_name,
        final_pass=final_pass,
        plans=plans,
        fingerprint=policy.fingerprint,
        reorder=bool(policy.options.get("reorder", True)),
    )
