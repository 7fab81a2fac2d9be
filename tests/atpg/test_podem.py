"""Tests for the PODEM search engine (DETECT and JUSTIFY modes)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.atpg.podem import Limits, PodemEngine, SearchStatus
from repro.atpg.unrolled import UnrolledModel
from repro.circuit.gates import GateType
from repro.circuit.netlist import Circuit
from repro.circuits import (
    REDUNDANT_FAULT,
    gray_fsm,
    redundant_and,
    s27,
    untestable_stem,
)
from repro.faults.collapse import collapse_faults
from repro.faults.model import Fault, full_fault_list
from repro.simulation.compiled import compile_circuit
from repro.simulation.encoding import X, pack_const, unpack
from repro.simulation.fault_sim import FaultSimulator

from ..conftest import random_circuits


def limits(backtracks=10_000):
    return Limits(max_backtracks=backtracks)


def reference_minimize(engine, targets, vectors, required):
    """Greedy requirement minimisation, rebuilding the model per trial."""
    cc = engine.cc
    d_inputs = [
        (cc.ff_in[cc.ff_out.index(cc.index[name])], value)
        for name, value in (targets or {}).items()
    ]

    def goal_with(state):
        model = UnrolledModel(cc, engine.fault, engine.model.num_frames)
        for frame, vec in enumerate(vectors):
            for pin, idx in enumerate(cc.pi):
                if vec[pin] != X and model.good(frame, idx) == X:
                    model.assign(frame, idx, vec[pin])
        for name, value in state.items():
            idx = cc.index[name]
            if model.good(0, idx) == X:
                model.assign(0, idx, value)
        if engine.fault is not None:
            return model.detected_at(engine.observe_ppo) is not None
        return all(model.good(0, d) == v for d, v in d_inputs)

    kept = dict(required)
    for name in list(required):
        trial = {k: v for k, v in kept.items() if k != name}
        if goal_with(trial):
            kept = trial
    return kept


def values(model):
    """A copy of a model's value rows."""
    return [list(r) for r in model.v1], [list(r) for r in model.v0]


def check_minimisation(engine, targets=None, count=3, backtracks=10_000):
    """Pin each solution's requirement to the reference; count minimisations.

    A spy wraps the engine's minimiser, which runs on the search model in
    place: every call must leave that model's values exactly as it found
    them.  Returns the number of minimiser calls.
    """
    minimise = engine._minimize_requirement
    calls = 0

    def spy(vectors, required):
        nonlocal calls
        before = values(engine.model)
        kept = minimise(vectors, required)
        assert values(engine.model) == before
        calls += 1
        return kept

    engine._minimize_requirement = spy
    seen = 0
    for sol in engine.solutions(limits(backtracks)):
        # the search model still holds the solution while it is yielded
        raw = engine.model.required_state()
        expected = reference_minimize(engine, targets, sol.vectors, raw)
        assert list(sol.required_state.items()) == list(expected.items())
        seen += 1
        if seen >= count:
            break
    return calls


def later_frame_circuit():
    """y = AND(a, q), z = AND(a, c), q = DFF(y); outputs y and z."""
    c = Circuit("later_frame")
    c.add_input("a")
    c.add_input("c")
    c.add_gate("y", GateType.AND, ["a", "q"])
    c.add_gate("z", GateType.AND, ["a", "c"])
    c.add_gate("q", GateType.DFF, ["y"])
    c.add_output("y")
    c.add_output("z")
    return c


class TestRequirementMinimisation:
    def test_first_solutions_of_every_s27_fault(self):
        cc = compile_circuit(s27())
        minimised = 0
        for fault in collapse_faults(s27()):
            for frames in (1, 2, 3):
                engine = PodemEngine(cc, fault=fault, num_frames=frames)
                minimised += check_minimisation(engine)
        assert minimised  # the minimiser really ran

    def test_later_frame_inputs_are_released_first(self):
        """A detection the solution's vectors do not reach must not count.

        With ``q`` = 1, ``a`` s-a-0 shows at ``y`` in frame 0.  The search
        model also holds ``a`` = ``c`` = 1 in frame 1, where ``z`` detects
        the fault without ``q``; those inputs lie past the solution's one
        vector, so the requirement on ``q`` must stay.
        """
        cc = compile_circuit(later_frame_circuit())
        engine = PodemEngine(cc, fault=Fault("a", 0), num_frames=2)
        model = engine.model
        for frame, name in ((0, "a"), (0, "q"), (1, "a"), (1, "c")):
            model.assign(frame, cc.index[name], 1)
        before = values(model)
        assert engine._minimize_requirement([[1, X]], {"q": 1}) == {"q": 1}
        assert values(model) == before

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_detect_mode_matches_rebuild_reference(self, data):
        circuit = data.draw(random_circuits())
        cc = compile_circuit(circuit)
        model_name = data.draw(st.sampled_from(["stuck_at", "transition"]))
        fault = data.draw(st.sampled_from(full_fault_list(circuit, model_name)))
        engine = PodemEngine(
            cc, fault=fault, num_frames=data.draw(st.integers(1, 3)),
            observe_ppo=data.draw(st.booleans()),
        )
        check_minimisation(engine, count=4, backtracks=200)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_justify_mode_matches_rebuild_reference(self, data):
        circuit = data.draw(random_circuits(max_ff=4).filter(lambda c: c.flops))
        cc = compile_circuit(circuit)
        names = data.draw(
            st.lists(st.sampled_from(circuit.flops), min_size=1, unique=True)
        )
        targets = {name: data.draw(st.integers(0, 1)) for name in names}
        engine = PodemEngine(cc, targets=targets)
        check_minimisation(engine, targets, count=4, backtracks=200)


class TestDetectMode:
    def test_combinational_detection(self):
        c = Circuit("comb")
        c.add_input("a")
        c.add_input("b")
        c.add_gate("y", GateType.AND, ["a", "b"])
        c.add_output("y")
        cc = compile_circuit(c)
        engine = PodemEngine(cc, fault=Fault("a", 0), num_frames=1)
        sol = engine.run(limits())
        assert sol is not None
        assert sol.vectors[0] == [1, 1]  # a=1 to excite, b=1 to propagate

    def test_every_s27_solution_really_detects(self):
        """Cross-validate PODEM solutions against the fault simulator."""
        circuit = s27()
        cc = compile_circuit(circuit)
        sim = FaultSimulator(cc)
        for fault in collapse_faults(circuit):
            engine = PodemEngine(cc, fault=fault, num_frames=6)
            sol = engine.run(limits())
            if sol is None:
                continue  # may need state justification; engine level only
            if sol.required_state:
                continue  # not a self-contained test
            vectors = [[0 if v == X else v for v in vec] for vec in sol.vectors]
            result = sim.run(vectors, [fault])
            assert fault in result.detected, f"{fault}: bogus solution"

    def test_redundant_fault_exhausts(self):
        cc = compile_circuit(redundant_and())
        engine = PodemEngine(cc, fault=REDUNDANT_FAULT, num_frames=1)
        assert engine.run(limits()) is None
        assert engine.status is SearchStatus.EXHAUSTED

    def test_constant_zero_fault_exhausts(self):
        circuit, fault = untestable_stem()
        cc = compile_circuit(circuit)
        engine = PodemEngine(cc, fault=fault, num_frames=2)
        assert engine.run(limits()) is None
        assert engine.status is SearchStatus.EXHAUSTED

    def test_backtrack_limit_reported(self):
        cc = compile_circuit(redundant_and())
        engine = PodemEngine(cc, fault=REDUNDANT_FAULT, num_frames=1)
        assert engine.run(Limits(max_backtracks=0)) is None
        assert engine.status is SearchStatus.LIMIT

    def test_multiple_solutions_are_distinct_assignments(self):
        c = Circuit("two_ways")
        c.add_input("a")
        c.add_input("b")
        c.add_input("c")
        c.add_gate("or1", GateType.OR, ["b", "c"])
        c.add_gate("y", GateType.AND, ["a", "or1"])
        c.add_output("y")
        cc = compile_circuit(c)
        engine = PodemEngine(cc, fault=Fault("a", 0), num_frames=1)
        sols = []
        for sol in engine.solutions(limits()):
            sols.append(tuple(sol.vectors[0]))
            if len(sols) >= 2:
                break
        assert len(sols) == 2 and sols[0] != sols[1]


class TestFreshEngineStatus:
    """An engine that has not searched yet claims no proof."""

    def test_fresh_detect_and_justify_engines_report_limit(self):
        cc = compile_circuit(s27())
        redundant = compile_circuit(redundant_and())
        for engine in (
            PodemEngine(cc, fault=Fault("G0", 0), num_frames=2),
            PodemEngine(redundant, fault=REDUNDANT_FAULT, num_frames=1),
            PodemEngine(cc, targets={"G7": 1}),
        ):
            # LIMIT proves nothing; EXHAUSTED or WINDOW would claim a proof
            assert engine.status is SearchStatus.LIMIT


class TestJustifyMode:
    def test_single_frame_justify(self):
        cc = compile_circuit(s27())
        # G7's D input is G13 = NOR(G2, G12); G7=1 needs G2=0 and G12=0
        engine = PodemEngine(cc, targets={"G7": 1})
        sol = engine.run(limits())
        assert sol is not None
        vec = sol.vectors[0]
        assert vec[2] == 0  # G2 must be 0

    def test_justify_impossible_value(self):
        c = Circuit("never")
        c.add_input("a")
        c.add_gate("zero", GateType.CONST0, [])
        c.add_gate("q", GateType.DFF, ["zero"])
        c.add_gate("y", GateType.BUF, ["q"])
        c.add_gate("k", GateType.AND, ["a", "y"])
        c.add_output("k")
        cc = compile_circuit(c)
        engine = PodemEngine(cc, targets={"q": 1})
        assert engine.run(limits()) is None
        assert engine.status is SearchStatus.EXHAUSTED

    def test_justify_carries_state_requirement(self):
        cc = compile_circuit(gray_fsm())
        # s1' = s0 (via BUF s0d): requiring s1=1 needs previous s0=1
        engine = PodemEngine(cc, targets={"s1": 1})
        sol = engine.run(limits())
        assert sol is not None
        assert sol.required_state == {"s0": 1}

    def test_mode_arguments_validated(self):
        cc = compile_circuit(s27())
        with pytest.raises(ValueError):
            PodemEngine(cc)  # neither fault nor targets
        with pytest.raises(ValueError):
            PodemEngine(cc, fault=Fault("G0", 0), targets={"G5": 1})
        with pytest.raises(ValueError):
            PodemEngine(cc, targets={"G14": 1})  # not a flip-flop
