"""PolicyPlan construction and its final-pass invariant."""

from repro.circuits import s27
from repro.faults.collapse import collapse_faults
from repro.faults.model import Fault
from repro.policy.schedule import PolicyPlan, build_plan
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
        assert set(plan.start_passes) == {str(f) for f in faults}
        assert plan.circuit == "s27"
        assert plan.final_pass == 3

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
        assert all(1 <= start <= 2 for start in plan.start_passes.values())

    def test_determinism(self):
        cc, faults = fixtures()
        policy = train_policy(toy_rows())
        a = build_plan(policy, cc, faults, final_pass=3)
        b = build_plan(policy, cc, faults, final_pass=3)
        assert a == b


class TestPolicyPlan:
    def test_final_pass_always_eligible(self):
        fault = Fault(net="n", stuck=0)
        plan = PolicyPlan("c", 3, {str(fault): 3})
        assert not plan.eligible(fault, 1)
        assert not plan.eligible(fault, 2)
        assert plan.eligible(fault, 3)
        # passes beyond the nominal final (defensive) stay eligible
        assert plan.eligible(fault, 4)

    def test_unplanned_fault_always_eligible(self):
        plan = PolicyPlan("c", 3, {})
        assert plan.eligible(Fault(net="x", stuck=1), 1)
