"""PolicyPlan construction and its coverage-safety invariants."""

import json

from repro.circuits import s27
from repro.faults.collapse import collapse_faults
from repro.faults.model import Fault
from repro.policy.model import DEFAULT_OPTIONS, FaultPolicy
from repro.policy.schedule import FaultPlan, PolicyPlan, build_plan
from repro.simulation.compiled import compile_circuit

from .test_model import toy_rows, train_policy


def fixtures():
    cc = compile_circuit(s27())
    return cc, collapse_faults(cc.circuit)


class TestBuildPlan:
    def test_plan_covers_every_fault(self):
        cc, faults = fixtures()
        policy = train_policy(toy_rows())
        plan = build_plan(policy, cc, faults, final_pass=3)
        assert plan is not None
        assert set(plan.plans) == {str(f) for f in faults}
        assert plan.circuit == "s27"
        assert plan.fingerprint == policy.fingerprint

    def test_foreign_circuit_gets_no_plan(self):
        cc, faults = fixtures()
        rows = toy_rows()
        for row in rows.rows:
            row.circuit = "s298"
        policy = train_policy(rows)
        assert build_plan(policy, cc, faults, final_pass=3) is None

    def test_start_pass_clamped_to_schedule(self):
        cc, faults = fixtures()
        policy = train_policy(toy_rows())
        plan = build_plan(policy, cc, faults, final_pass=2)
        assert all(
            1 <= p.start_pass <= 2 for p in plan.plans.values()
        )

    def test_deferred_faults_start_at_final_pass(self):
        cc, faults = fixtures()
        policy = train_policy(toy_rows())
        plan = build_plan(policy, cc, faults, final_pass=3)
        for fault_plan in plan.plans.values():
            if fault_plan.deferred:
                assert fault_plan.start_pass == 3

    def test_retired_options_leave_the_plan_unchanged(self):
        """Artifacts written while GA-budget shrinking existed carry it
        switched off; they load with today's options and plan alike."""
        cc, faults = fixtures()
        doc = train_policy(toy_rows()).to_dict()
        old = json.loads(json.dumps(doc))
        old["options"].update(shrink_ga=False, cheap_cost=None)
        assert FaultPolicy.from_dict(old).options == DEFAULT_OPTIONS

        def plan_of(data):
            policy = FaultPolicy.from_dict(data)
            plan = build_plan(policy, cc, faults, final_pass=3)
            return {name: vars(p) for name, p in plan.plans.items()}

        assert plan_of(old) == plan_of(doc)

    def test_determinism(self):
        cc, faults = fixtures()
        policy = train_policy(toy_rows())
        a = build_plan(policy, cc, faults, final_pass=3)
        b = build_plan(policy, cc, faults, final_pass=3)
        assert {k: vars(v) for k, v in a.plans.items()} == {
            k: vars(v) for k, v in b.plans.items()
        }


class TestPolicyPlan:
    def plan(self, plans, final_pass=3):
        return PolicyPlan("c", final_pass, plans)

    def test_final_pass_always_eligible(self):
        fault = Fault(net="n", stuck=0)
        plan = self.plan(
            {str(fault): FaultPlan(3, deferred=True, order_key=9.0)}
        )
        assert not plan.eligible(fault, 1)
        assert not plan.eligible(fault, 2)
        assert plan.eligible(fault, 3)
        # passes beyond the nominal final (defensive) stay eligible
        assert plan.eligible(fault, 4)

    def test_unplanned_fault_always_eligible(self):
        plan = self.plan({})
        assert plan.eligible(Fault(net="x", stuck=1), 1)

    def test_order_is_cheap_first_and_stable(self):
        f1, f2, f3 = (Fault(net=n, stuck=0) for n in ("a", "b", "c"))
        plan = self.plan({
            str(f1): FaultPlan(1, deferred=False, order_key=5.0),
            str(f2): FaultPlan(1, deferred=True, order_key=0.0),
            str(f3): FaultPlan(1, deferred=False, order_key=5.0),
        })
        # deferred last; equal keys keep input order (stable)
        assert plan.order([f1, f2, f3]) == [f1, f3, f2]

    def test_unplanned_faults_sort_after_planned_before_deferred(self):
        planned = Fault(net="a", stuck=0)
        deferred = Fault(net="b", stuck=0)
        stranger = Fault(net="z", stuck=1)
        plan = self.plan({
            str(planned): FaultPlan(1, deferred=False, order_key=2.0),
            str(deferred): FaultPlan(3, deferred=True, order_key=0.0),
        })
        assert plan.order([deferred, stranger, planned]) == [
            planned, stranger, deferred,
        ]

    def test_deferred_count(self):
        a, b, c = (Fault(net=n, stuck=0) for n in ("a", "b", "c"))
        plan = self.plan({
            str(a): FaultPlan(3, deferred=True, order_key=0.0),
            str(b): FaultPlan(1, deferred=False, order_key=0.0),
            str(c): FaultPlan(3, deferred=True, order_key=0.0),
        })
        assert plan.deferred_count([a, b, c]) == 2
        # only the faults asked about count, never the whole plan
        assert plan.deferred_count([a, b]) == 1
        assert plan.deferred_count([b, Fault(net="z", stuck=1)]) == 0
