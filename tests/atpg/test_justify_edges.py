"""Edge-case regressions for reverse-time justification.

The precision of :class:`~repro.atpg.justify.JustifyStatus` is load
bearing twice over: UNTESTABLE claims in the sequential engine trust
EXHAUSTED, and the knowledge store records proofs based on which failure
bit bit.  These tests pin the distinctions down:

* frame-limit exhaustion (BOUNDED) versus proven-unjustifiable
  (EXHAUSTED) — a state unreachable at *any* depth must not be reported
  as merely depth-bounded, and vice versa;
* enumeration truncation (``solutions_per_step``) is a budget effect —
  it may yield BOUNDED but must never be recorded as a depth proof;
* a single-step solution skipped on an absolute knowledge fact does not
  use up one of ``solutions_per_step``;
* InputConstraints interaction — constraints can turn a justifiable
  state unjustifiable, and facts proven under constraints carry a
  different knowledge fingerprint.
"""

from repro.atpg.constraints import InputConstraints
from repro.atpg.justify import JustifyStatus, justify_state
from repro.atpg.podem import Limits
from repro.circuit.gates import GateType
from repro.circuit.netlist import Circuit
from repro.circuits import counter, two_stage_pipeline
from repro.knowledge import StateKnowledge, constraints_fingerprint, state_key
from repro.simulation.compiled import compile_circuit

from .test_justify import verify_justification


def stuck_pair() -> Circuit:
    """q1 and q2 always latch opposite values: (1, 1) is unreachable."""
    c = Circuit("stuck_pair")
    c.add_input("a")
    c.add_gate("q1", GateType.DFF, ["a"])
    c.add_gate("na", GateType.NOT, ["a"])
    c.add_gate("q2", GateType.DFF, ["na"])
    c.add_gate("y", GateType.XOR, ["q1", "q2"])
    c.add_output("y")
    return c


def unreachable_first() -> Circuit:
    """r = s XOR b with s = q1 AND q2, stuck_pair's unreachable state.

    JUSTIFY-mode PODEM's first solution for r=1 asks for (q1, q2) =
    (1, 1); the next one asks for q2=0, which one frame reaches.
    """
    c = stuck_pair()
    c.add_input("b")
    c.add_gate("s", GateType.AND, ["q1", "q2"])
    c.add_gate("d", GateType.XOR, ["s", "b"])
    c.add_gate("r", GateType.DFF, ["d"])
    c.add_output("r")
    return c


class TestExhaustedVersusBounded:
    def test_unreachable_state_is_exhausted_even_at_depth_one(self):
        """An absolute contradiction never blames the frame bound."""
        cc = compile_circuit(stuck_pair())
        for depth in (1, 3, 6):
            res = justify_state(cc, {"q1": 1, "q2": 1}, max_depth=depth,
                                limits=Limits(50_000))
            assert res.status is JustifyStatus.EXHAUSTED, depth

    def test_deep_state_at_shallow_bound_is_bounded_not_exhausted(self):
        """f2=1 needs two frames; depth 1 is a bound, not a proof."""
        cc = compile_circuit(two_stage_pipeline())
        res = justify_state(cc, {"f2": 1}, max_depth=1, limits=Limits())
        assert res.status is JustifyStatus.BOUNDED

    def test_backtrack_budget_is_limit_not_exhausted(self):
        cc = compile_circuit(counter(4))
        res = justify_state(cc, {"q3": 1}, max_depth=20,
                            limits=Limits(max_backtracks=0))
        assert res.status is not JustifyStatus.EXHAUSTED
        assert res.status is not JustifyStatus.JUSTIFIED


class TestKnowledgeRecordingSoundness:
    def _store(self, circuit: Circuit) -> StateKnowledge:
        return StateKnowledge(circuit=circuit.name)

    def test_exhausted_records_absolute_proof(self):
        circuit = stuck_pair()
        cc = compile_circuit(circuit)
        know = self._store(circuit)
        res = justify_state(cc, {"q1": 1, "q2": 1}, max_depth=6,
                            limits=Limits(50_000), knowledge=know)
        assert res.status is JustifyStatus.EXHAUSTED
        assert know.unjustifiable[state_key({"q1": 1, "q2": 1})] is None

    def test_exhausted_hit_short_circuits_second_query(self):
        circuit = stuck_pair()
        cc = compile_circuit(circuit)
        know = self._store(circuit)
        justify_state(cc, {"q1": 1, "q2": 1}, max_depth=6,
                      limits=Limits(50_000), knowledge=know)
        hits0 = know.stats["unjustifiable_hits"]
        # a *stricter* requirement (superset) is answered by subsumption
        res = justify_state(cc, {"q1": 1, "q2": 1}, max_depth=2,
                            limits=Limits(0), knowledge=know)
        assert res.status is JustifyStatus.EXHAUSTED
        assert know.stats["unjustifiable_hits"] == hits0 + 1

    def test_depth_bound_records_depth_limited_proof(self):
        circuit = two_stage_pipeline()
        cc = compile_circuit(circuit)
        know = self._store(circuit)
        res = justify_state(cc, {"f2": 1}, max_depth=1, limits=Limits(),
                            knowledge=know)
        assert res.status is JustifyStatus.BOUNDED
        assert know.unjustifiable[state_key({"f2": 1})] == 1
        # the depth-1 proof answers depth-1 queries but NOT deeper ones:
        # at depth 4 the search must run, succeed, and flip the fact
        res = justify_state(cc, {"f2": 1}, max_depth=4, limits=Limits(),
                            knowledge=know)
        assert res.success
        verify_justification(circuit, {"f2": 1}, res.vectors)
        assert state_key({"f2": 1}) not in know.unjustifiable
        assert know.lookup_justified({"f2": 1}) is not None

    def test_truncation_is_never_recorded_as_a_proof(self):
        """solutions_per_step cuts enumeration; that proves nothing."""
        circuit = counter(3)
        cc = compile_circuit(circuit)
        know = self._store(circuit)
        # q2=1 needs 4 enabled steps; depth 2 with a single alternative
        # per step fails through truncation + depth together
        res = justify_state(cc, {"q2": 1}, max_depth=2,
                            limits=Limits(50_000), solutions_per_step=1,
                            knowledge=know)
        assert res.status is JustifyStatus.BOUNDED
        assert state_key({"q2": 1}) not in know.unjustifiable

    def test_budget_abort_is_never_recorded(self):
        circuit = counter(4)
        cc = compile_circuit(circuit)
        know = self._store(circuit)
        justify_state(cc, {"q3": 1}, max_depth=20,
                      limits=Limits(max_backtracks=0), knowledge=know)
        assert state_key({"q3": 1}) not in know.unjustifiable

    def test_success_records_and_replays(self):
        circuit = two_stage_pipeline()
        cc = compile_circuit(circuit)
        know = self._store(circuit)
        first = justify_state(cc, {"f2": 1}, max_depth=4, limits=Limits(),
                              knowledge=know)
        assert first.success
        # second query answered from knowledge, even with a zero budget
        again = justify_state(cc, {"f2": 1}, max_depth=4,
                              limits=Limits(max_backtracks=0),
                              knowledge=know)
        assert again.success
        assert again.vectors == first.vectors
        verify_justification(circuit, {"f2": 1}, again.vectors)


class TestKnowledgePruning:
    def test_skipped_solution_does_not_use_up_the_step_budget(self):
        circuit = unreachable_first()
        cc = compile_circuit(circuit)
        # one solution per step: the unreachable first one uses it up
        res = justify_state(cc, {"r": 1}, max_depth=4, limits=Limits(1000),
                            solutions_per_step=1)
        assert res.status is JustifyStatus.BOUNDED
        know = StateKnowledge(circuit=circuit.name)
        know.record_unjustifiable({"q1": 1, "q2": 1}, None)
        res = justify_state(cc, {"r": 1}, max_depth=4, limits=Limits(1000),
                            solutions_per_step=1, knowledge=know)
        assert res.success
        assert know.stats["podem_pruned"] == 1
        verify_justification(circuit, {"r": 1}, res.vectors)


class TestConstraintsInteraction:
    def test_fixed_pin_makes_state_unjustifiable(self):
        """pipe2 f1=1 needs a=1; fixing a=0 forbids it at any depth."""
        circuit = two_stage_pipeline()
        cc = compile_circuit(circuit)
        free = justify_state(cc, {"f1": 1}, max_depth=4, limits=Limits())
        assert free.success
        pinned = InputConstraints(fixed={"a": 0})
        res = justify_state(cc, {"f1": 1}, max_depth=4, limits=Limits(),
                            constraints=pinned)
        assert res.status is JustifyStatus.EXHAUSTED

    def test_constrained_proof_lands_in_the_right_fingerprint(self):
        """Facts proven under constraints must not leak to unconstrained."""
        pinned = InputConstraints(fixed={"a": 0})
        assert constraints_fingerprint(None) == "unconstrained"
        assert constraints_fingerprint(pinned) != "unconstrained"
        assert (constraints_fingerprint(pinned)
                == constraints_fingerprint(InputConstraints(fixed={"a": 0})))
        assert (constraints_fingerprint(InputConstraints(fixed={"a": 1}))
                != constraints_fingerprint(pinned))

    def test_hold_pin_still_justifiable_when_compatible(self):
        """Holding 'a' constant still reaches f1=1, f2=1 (a=1 held)."""
        circuit = two_stage_pipeline()
        cc = compile_circuit(circuit)
        held = InputConstraints(hold=frozenset({"a"}))
        res = justify_state(cc, {"f1": 1, "f2": 1}, max_depth=4,
                            limits=Limits(), constraints=held)
        assert res.success
        column = {vec[0] for vec in res.vectors if vec[0] in (0, 1)}
        assert len(column) <= 1  # the held pin never changes value
        verify_justification(circuit, {"f1": 1, "f2": 1}, res.vectors)
