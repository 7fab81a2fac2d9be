"""Regression tests for soundness bugs found by property-based fuzzing.

Each test pins the minimal counterexample that exposed a real defect, so
the fix can never silently regress.
"""

import pytest

from repro.atpg.context import AtpgContext
from repro.atpg.hitec import SequentialTestGenerator
from repro.atpg.hitec import TestGenStatus as GenStatus
from repro.atpg.justify import JustifyStatus, justify_state
from repro.atpg.podem import Limits, PodemEngine
from repro.atpg.unrolled import UnrolledModel
from repro.circuit.gates import GateType
from repro.circuit.netlist import Circuit
from repro.faults.model import Fault
from repro.simulation.compiled import compile_circuit
from repro.simulation.encoding import X
from repro.simulation.fault_sim import FaultSimulator


def and_loop_circuit() -> Circuit:
    """g0 = AND(ff0, ff1); ff0 = DFF(g0); ff1 = DFF(pi0); PO = g0.

    ``ff0 = 1`` is unreachable from power-up X (the AND loop can never
    become a definite 1), but ``ff0 = 0`` is reachable *only* through the
    minimal requirement {ff1 = 0}: requiring {ff0 = 0} of the previous
    frame loops, and {ff0 = 1, ff1 = 0} contains the unreachable bit.
    """
    c = Circuit("and_loop")
    c.add_input("pi0")
    c.add_gate("g0", GateType.AND, ["ff0", "ff1"])
    c.add_gate("ff0", GateType.DFF, ["g0"])
    c.add_gate("ff1", GateType.DFF, ["pi0"])
    c.add_output("g0")
    return c


class TestRequirementMinimisation:
    """PODEM must not over-constrain the frame-0 state (bug #2)."""

    def test_justify_through_minimal_requirement(self):
        cc = compile_circuit(and_loop_circuit())
        res = justify_state(cc, {"ff0": 0}, max_depth=8, limits=Limits(5000))
        assert res.status is JustifyStatus.JUSTIFIED

    def test_faults_on_the_loop_are_detected(self):
        circuit = and_loop_circuit()
        cc = compile_circuit(circuit)
        gen = SequentialTestGenerator(AtpgContext(cc), max_frames=6)
        sim = FaultSimulator(cc)

        def justifier(required):
            return justify_state(cc, required, 8, Limits(5000))

        for fault in (Fault("g0", 1), Fault("ff0", 1)):
            res = gen.generate(fault, justifier, Limits(5000))
            assert res.status is GenStatus.DETECTED, str(fault)
            vectors = [[0 if v == X else v for v in vec] for vec in res.sequence]
            assert fault in sim.run(vectors, [fault]).detected

    def test_unreachable_state_still_proven(self):
        cc = compile_circuit(and_loop_circuit())
        res = justify_state(cc, {"ff0": 1}, max_depth=8, limits=Limits(20000))
        assert res.status is JustifyStatus.EXHAUSTED

    def test_minimised_solution_requirement(self):
        cc = compile_circuit(and_loop_circuit())
        engine = PodemEngine(cc, targets={"ff0": 0})
        requirements = [
            sol.required_state for sol in engine.solutions(Limits(5000))
        ]
        assert {"ff1": 0} in requirements  # the minimal option must appear


class TestWindowEdgeSoundness:
    """An X-path dying at the window edge is not untestability (bug #1)."""

    def test_pi_fault_needing_two_frames(self):
        """s27's G2 s-a-0 propagates only through a flip-flop."""
        from repro.circuits import s27

        cc = compile_circuit(s27())
        engine1 = PodemEngine(cc, fault=Fault("G2", 0), num_frames=1)
        assert engine1.run(Limits(10_000)) is None
        assert engine1.window_hit, "the 1-frame failure must blame the window"
        engine2 = PodemEngine(cc, fault=Fault("G2", 0), num_frames=2)
        assert engine2.run(Limits(10_000)) is not None


class TestObservePpo:
    """Scan mode observes captured state (bug #3: X-path ignored PPOs)."""

    def _capture_only(self) -> Circuit:
        c = Circuit("capture_only")
        c.add_input("a")
        c.add_input("b")
        c.add_gate("g", GateType.AND, ["a", "b"])
        c.add_gate("q", GateType.DFF, ["g"])
        c.add_gate("y", GateType.BUF, ["q"])
        c.add_output("y")
        return c

    def test_fault_on_d_cone_detectable_with_ppo(self):
        cc = compile_circuit(self._capture_only())
        fault = Fault("g", 0)
        blind = PodemEngine(cc, fault=fault, num_frames=1)
        assert blind.run(Limits(1000)) is None  # PO is one frame too late
        seeing = PodemEngine(cc, fault=fault, num_frames=1, observe_ppo=True)
        sol = seeing.run(Limits(1000))
        assert sol is not None
        assert sol.vectors[0] == [1, 1]


def shared_d_circuit() -> Circuit:
    """g0 = AND(pi0, ff0), g3 = NAND(pi0, ff0); ff0 and ff1 both latch g3.

    ff1 is declared last and drives nothing, so an X-path check that
    crosses from a D-input net into one flip-flop only lands on ff1 and
    never reaches the PO through ff0.
    """
    c = Circuit("shared_d")
    c.add_input("pi0")
    c.add_gate("g0", GateType.AND, ["pi0", "ff0"])
    c.add_gate("g3", GateType.NAND, ["pi0", "ff0"])
    c.add_gate("ff0", GateType.DFF, ["g3"])
    c.add_gate("ff1", GateType.DFF, ["g3"])
    c.add_output("g0")
    return c


class TestSharedDInput:
    """One net feeding two flip-flops must not hide a path (bug #4)."""

    def test_feedback_branch_faults_are_detected(self):
        cc = compile_circuit(shared_d_circuit())
        gen = SequentialTestGenerator(AtpgContext(cc), max_frames=6)
        sim = FaultSimulator(cc)

        def justifier(required):
            return justify_state(cc, required, 8, Limits(5000))

        for stuck in (0, 1):
            fault = Fault("ff0", stuck, gate="g3", pin=1)
            res = gen.generate(fault, justifier, Limits(5000))
            assert res.status is GenStatus.DETECTED, str(fault)
            vectors = [[0 if v == X else v for v in vec] for vec in res.sequence]
            assert fault in sim.run(vectors, [fault]).detected

    def test_x_path_crosses_into_every_flip_flop(self):
        cc = compile_circuit(shared_d_circuit())
        model = UnrolledModel(cc, Fault("ff0", 0, gate="g3", pin=1), num_frames=2)
        model.assign(0, cc.index["ff0"], 1)
        frontier = model.d_frontier()
        assert frontier
        assert model.x_path_info(frontier)[0]


def released_pi_circuit() -> Circuit:
    """g0 = NOT(pi2), g1 = XNOR(g0, g0); POs g3 = XNOR(ff0, ff1) and
    g4 = AND(ff1, g1); ff0 = DFF(g3), ff1 = DFF(pi0).

    ``ff0`` never leaves X from power-up.  ``g1`` is 1 whenever ``pi2``
    has a value, so ``g4`` observes ``ff1`` with ``ff0`` left at X.
    """
    c = Circuit("released_pi")
    c.add_input("pi0")
    c.add_input("pi2")
    c.add_gate("g0", GateType.NOT, ["pi2"])
    c.add_gate("g1", GateType.XNOR, ["g0", "g0"])
    c.add_gate("g3", GateType.XNOR, ["ff0", "ff1"])
    c.add_gate("g4", GateType.AND, ["ff1", "g1"])
    c.add_gate("ff0", GateType.DFF, ["g3"])
    c.add_gate("ff1", GateType.DFF, ["pi0"])
    c.add_output("g3")
    c.add_output("g4")
    return c


class TestReleasedPiRequirement:
    """Requirement minimisation releases state, never PIs (open, bug #5).

    PODEM decides ``ff0`` both ways at ``g3``; neither requirement is
    justifiable, because ``ff0`` never leaves X.  The ``g4`` path needs
    ``pi2`` set while ``ff0`` stays X, and minimisation releases only
    state requirements, so both ``ff1`` faults are claimed UNTESTABLE.
    A fix may move the pinned untestable counts: measure them.
    """

    FAULTS = (Fault("ff1", 0), Fault("ff1", 1))

    def test_faults_are_detectable(self):
        # (pi0 pi2) = 00, 10, 11 from all-X detects both at frames 1 and 2
        sim = FaultSimulator(compile_circuit(released_pi_circuit()))
        result = sim.run([[0, 0], [1, 0], [1, 1]], list(self.FAULTS))
        assert set(result.detected) == set(self.FAULTS)

    @pytest.mark.xfail(
        strict=True,
        reason="minimisation releases state requirements, never PIs, so "
        "the g4 path (pi2 set, ff0 left X) is never tried",
    )
    def test_faults_are_not_claimed_untestable(self):
        cc = compile_circuit(released_pi_circuit())
        gen = SequentialTestGenerator(AtpgContext(cc), max_frames=6)

        def justifier(required):
            return justify_state(cc, required, 8, Limits(5000))

        for fault in self.FAULTS:
            res = gen.generate(fault, justifier, Limits(5000))
            assert res.status is not GenStatus.UNTESTABLE, str(fault)
