"""Differential and behavioural tests for the event-driven logic simulator."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.circuit.gates import GateType
from repro.circuit.netlist import Circuit
from repro.circuits import s27
from repro.faults.model import full_fault_list
from repro.simulation.compiled import compile_circuit
from repro.simulation.encoding import X, pack_const, unpack
from repro.simulation.fault_sim import FaultSimulator, injection_for
from repro.simulation.logic_sim import (
    FrameSimulator,
    Injection,
    make_simulator,
    simulate_sequence,
)

from ..conftest import random_circuits
from ..helpers import mutant_circuit, reference_sequence


def scalar_step(sim: FrameSimulator, circuit: Circuit, vector: dict) -> dict:
    packed = {name: pack_const(v, 1) for name, v in vector.items()}
    po = sim.step(packed)
    return {net: unpack(v, 1)[0] for net, v in zip(circuit.outputs, po)}


class TestAgainstReference:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_random_circuits_match_reference(self, data):
        circuit = data.draw(random_circuits())
        length = data.draw(st.integers(1, 6))
        vectors = [
            {pi: data.draw(st.sampled_from([0, 1, X])) for pi in circuit.inputs}
            for _ in range(length)
        ]
        sim = FrameSimulator(circuit, width=1)
        got = [scalar_step(sim, circuit, vec) for vec in vectors]
        expected = reference_sequence(circuit, vectors)
        assert got == expected

    def test_s27_sequence_matches_reference(self, s27_circuit):
        vectors = [
            {"G0": (i >> 0) & 1, "G1": (i >> 1) & 1, "G2": (i >> 2) & 1,
             "G3": (i >> 3) & 1}
            for i in range(16)
        ]
        sim = FrameSimulator(s27_circuit, width=1)
        got = [scalar_step(sim, s27_circuit, v) for v in vectors]
        assert got == reference_sequence(s27_circuit, vectors)


class TestStateHandling:
    def test_initial_state_is_all_x(self, s27_circuit):
        sim = FrameSimulator(s27_circuit, width=1)
        assert all(unpack(v, 1) == [X] for v in sim.get_state())

    def test_set_state_by_name(self, s27_circuit):
        sim = FrameSimulator(s27_circuit, width=1)
        sim.set_state({"G5": pack_const(1, 1), "G6": pack_const(0, 1)})
        state = dict(zip(s27_circuit.flops, sim.get_state()))
        assert unpack(state["G5"], 1) == [1]
        assert unpack(state["G6"], 1) == [0]
        assert unpack(state["G7"], 1) == [X]

    def test_reset_returns_to_x(self, s27_circuit):
        sim = FrameSimulator(s27_circuit, width=1)
        scalar_step(sim, s27_circuit, {"G0": 1, "G1": 0, "G2": 1, "G3": 0})
        sim.reset()
        assert all(unpack(v, 1) == [X] for v in sim.get_state())

    @pytest.mark.parametrize("backend", ["event", "codegen"])
    def test_source_stem_is_forced_before_any_frame(self, backend):
        # a source stem is forced as the source is written, reset included
        cc = compile_circuit(s27())
        inj = Injection(net=cc.index["G5"], stuck=1, mask=1)
        sim = make_simulator(cc, width=1, injections=[inj], backend=backend)
        assert unpack(sim.get_state()[0], 1) == [1]
        sim.set_state([pack_const(0, 1)] * 3)
        assert unpack(sim.get_state()[0], 1) == [1]

    def test_clock_latches_next_state(self):
        c = Circuit("latch")
        c.add_input("a")
        c.add_gate("q", GateType.DFF, ["a"])
        c.add_gate("y", GateType.BUF, ["q"])
        c.add_output("y")
        sim = FrameSimulator(c, width=1)
        first = scalar_step(sim, c, {"a": 1})
        second = scalar_step(sim, c, {"a": 0})
        assert first["y"] == X   # state unknown during the first frame
        assert second["y"] == 1  # previous frame's input appears now


class TestBitParallelism:
    def test_slots_are_independent(self, s27_circuit):
        import random

        rng = random.Random(3)
        width = 16
        vectors = []
        for _ in range(5):
            vectors.append(
                {pi: [rng.getrandbits(1) for _ in range(width)]
                 for pi in s27_circuit.inputs}
            )
        wide = FrameSimulator(s27_circuit, width=width)
        wide_out = []
        for vec in vectors:
            packed = {}
            for pi, bits in vec.items():
                p1 = sum(b << i for i, b in enumerate(bits))
                packed[pi] = (p1, (~p1) & ((1 << width) - 1))
            wide_out.append(wide.step(packed))
        for slot in range(width):
            narrow = FrameSimulator(s27_circuit, width=1)
            for frame, vec in enumerate(vectors):
                po = narrow.step(
                    {pi: pack_const(bits[slot], 1) for pi, bits in vec.items()}
                )
                for (w1, w0), (n1, n0) in zip(wide_out[frame], po):
                    assert ((w1 >> slot) & 1, (w0 >> slot) & 1) == (n1, n0)


class TestInjection:
    def _mutant(self, stuck: int) -> Circuit:
        """s27 with G8 literally tied to ``stuck`` (the injected equivalent)."""
        c = s27()
        gates = dict(c.gates)
        tie = GateType.CONST1 if stuck else GateType.CONST0
        from repro.circuit.netlist import Gate

        gates["G8"] = Gate("G8", tie, ())
        c.gates = gates
        c._invalidate()
        return c

    @pytest.mark.parametrize("stuck", [0, 1])
    def test_stem_injection_equals_mutant_circuit(self, stuck):
        import random

        rng = random.Random(11)
        vectors = [
            {pi: rng.getrandbits(1) for pi in s27().inputs} for _ in range(40)
        ]
        clean = s27()
        inj = Injection(net=compile_circuit(clean).index["G8"], stuck=stuck, mask=1)
        sim = FrameSimulator(clean, width=1, injections=[inj])
        got = [scalar_step(sim, clean, v) for v in vectors]
        mutant = self._mutant(stuck)
        expected = reference_sequence(mutant, vectors)
        assert got == expected

    def test_pin_injection_affects_only_that_gate(self):
        # y1 reads the faulted view of a, y2 the clean one
        c = Circuit("branch")
        c.add_input("a")
        c.add_gate("y1", GateType.BUF, ["a"])
        c.add_gate("y2", GateType.BUF, ["a"])
        c.add_output("y1")
        c.add_output("y2")
        cc = compile_circuit(c)
        inj = Injection(
            net=cc.index["a"], stuck=1, mask=1,
            gate_pos=cc.gate_of[cc.index["y1"]], pin=0,
        )
        sim = FrameSimulator(c, width=1, injections=[inj])
        out = scalar_step(sim, c, {"a": 0})
        assert out == {"y1": 1, "y2": 0}

    def test_ff_pin_injection_applies_at_clock(self):
        c = Circuit("ffpin")
        c.add_input("a")
        c.add_gate("q", GateType.DFF, ["a"])
        c.add_gate("other", GateType.BUF, ["a"])
        c.add_gate("y", GateType.BUF, ["q"])
        c.add_output("y")
        c.add_output("other")
        sim_clean = FrameSimulator(c, width=1)
        inj = Injection(net=compile_circuit(c).index["a"], stuck=0, mask=1, ff_pos=0)
        sim = FrameSimulator(c, width=1, injections=[inj])
        scalar_step(sim, c, {"a": 1})
        out = scalar_step(sim, c, {"a": 1})
        assert out["y"] == 0      # the latched value was forced to 0
        assert out["other"] == 1  # the combinational reader is unaffected


def _po_rows(circuit, vectors):
    """Reference per-frame PO scalars, in PO order."""
    return [list(po.values()) for po in reference_sequence(circuit, vectors)]


def _injected_rows(circuit, fault, vectors, backend):
    """Per-frame PO scalars of one backend with ``fault`` in its one slot."""
    cc = compile_circuit(circuit)
    sim = make_simulator(cc, width=1, injections=[injection_for(cc, fault, 1)],
                         backend=backend)
    return [
        [unpack(v, 1)[0] for v in
         sim.step([pack_const(vec[pi], 1) for pi in circuit.inputs])]
        for vec in vectors
    ]


def _check_against_mutants(circuit, faults, vectors):
    """Both backends and fault simulation agree with each fault's mutant.

    Returns the detection frame of every detected fault.
    """
    good = _po_rows(circuit, vectors)
    expected = {}
    for fault in faults:
        bad = _po_rows(mutant_circuit(circuit, fault), vectors)
        for backend in ("event", "codegen"):
            got = _injected_rows(circuit, fault, vectors, backend)
            assert got == bad, (str(fault), backend)
        for frame, (g, b) in enumerate(zip(good, bad)):
            if any(x != X and y != X and x != y for x, y in zip(g, b)):
                expected[fault] = frame
                break
    rows = [[vec[pi] for pi in circuit.inputs] for vec in vectors]
    for backend in ("event", "codegen"):
        result = FaultSimulator(circuit, width=8, backend=backend).run(rows, faults)
        assert result.detected == expected, backend
    return expected


class TestMutantReference:
    """Every injection kind against an independent reference: the fault's
    mutant netlist under :func:`reference_sequence`.  Stems on a primary
    input, a flip-flop output or a gate output, gate pins and flip-flop D
    pins, under both fault models, several faults to a batch."""

    def test_every_injection_kind_on_a_fixed_circuit(self):
        c = Circuit("kinds")
        a = c.add_input("a")
        b = c.add_input("b")
        c.add_gate("s", GateType.AND, [a, b])
        c.add_gate("y", GateType.NOR, ["s", b])
        c.add_gate("q", GateType.DFF, ["s"])
        c.add_gate("z", GateType.XOR, ["q", a])
        c.add_output("y")
        c.add_output("z")
        # stems on the inputs, the flip-flop output and every gate output;
        # branches into gates s, y and z and into q's D pin
        faults = full_fault_list(c) + full_fault_list(c, "transition")
        assert {f.gate for f in faults if f.is_branch} == {"s", "y", "z", "q"}
        rng = random.Random(5)
        vectors = [{pi: rng.choice([0, 1, X]) for pi in c.inputs}
                   for _ in range(12)]
        detected = _check_against_mutants(c, faults, vectors)
        assert {f.model for f in detected} == {"stuck_at", "transition"}

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_random_circuits_equal_mutant_circuits(self, data):
        circuit = data.draw(random_circuits(max_pi=3, max_ff=3, max_gates=8))
        universe = (full_fault_list(circuit)
                    + full_fault_list(circuit, "transition"))
        faults = data.draw(st.lists(st.sampled_from(universe), min_size=1,
                                    max_size=6, unique=True))
        length = data.draw(st.integers(1, 6))
        vectors = [
            {pi: data.draw(st.sampled_from([0, 1, X])) for pi in circuit.inputs}
            for _ in range(length)
        ]
        _check_against_mutants(circuit, faults, vectors)


class TestConvenience:
    def test_simulate_sequence(self, s27_circuit):
        vectors = [
            {pi: pack_const(1, 1) for pi in s27_circuit.inputs} for _ in range(3)
        ]
        outputs = simulate_sequence(s27_circuit, vectors, width=1)
        assert len(outputs) == 3
        assert all(len(frame) == 1 for frame in outputs)
