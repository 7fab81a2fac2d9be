"""Differential tests: the ``codegen`` backend against the event oracle.

The event-driven :class:`FrameSimulator` is the reference; every test here
asserts the generated-kernel backend matches it bit-for-bit — outputs,
next state, detection sets and surviving fault states — across all ten
gate codes, all three injection kinds (stem, gate input pin, flip-flop
D pin) and X-valued inputs.
"""

import gc
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.circuit.gates import GateType
from repro.circuit.netlist import Circuit
from repro.circuits import iscas89, s27
from repro.faults.model import Fault, full_fault_list
from repro.simulation.codegen import (
    CodegenFrameSimulator,
    generate_kernel_source,
    injection_signature,
    kernel_for,
)
from repro.simulation.compiled import compile_circuit
from repro.simulation.encoding import X, pack_const, unpack
from repro.simulation.fault_sim import FaultSimulator, GradedTestSet, injection_for
from repro.simulation.logic_sim import FrameSimulator, make_simulator, resolve_backend

_ALL_COMB = [
    GateType.AND,
    GateType.NAND,
    GateType.OR,
    GateType.NOR,
    GateType.XOR,
    GateType.XNOR,
    GateType.NOT,
    GateType.BUF,
    GateType.CONST0,
    GateType.CONST1,
]


@st.composite
def full_gateset_circuits(draw, max_pi=4, max_ff=3, max_gates=12):
    """Random sequential circuits over all ten gate codes (consts included)."""
    n_pi = draw(st.integers(1, max_pi))
    n_ff = draw(st.integers(0, max_ff))
    n_gates = draw(st.integers(1, max_gates))
    c = Circuit("codegen_hyp")
    pool = [c.add_input(f"pi{i}") for i in range(n_pi)]
    ffs = [f"ff{i}" for i in range(n_ff)]
    pool += ffs  # forward references resolved when the DFFs are added
    gate_outs = []
    for i in range(n_gates):
        gtype = draw(st.sampled_from(_ALL_COMB))
        if gtype in (GateType.CONST0, GateType.CONST1):
            fanin = 0
        elif gtype in (GateType.NOT, GateType.BUF):
            fanin = 1
        else:
            fanin = draw(st.integers(2, 3))
        candidates = pool[: n_pi + n_ff + len(gate_outs)]
        ins = [
            candidates[draw(st.integers(0, len(candidates) - 1))]
            for _ in range(fanin)
        ]
        net = f"g{i}"
        c.add_gate(net, gtype, ins)
        pool.append(net)
        gate_outs.append(net)
    for ff in ffs:
        src = pool[draw(st.integers(0, len(pool) - 1))]
        if src == ff:
            src = pool[0]
        c.add_gate(ff, GateType.DFF, [src])
    n_po = draw(st.integers(1, min(3, len(gate_outs))))
    chosen = draw(
        st.lists(st.sampled_from(gate_outs), min_size=n_po, max_size=n_po,
                 unique=True)
    )
    for net in chosen:
        c.add_output(net)
    return c


def _step_both(circuit, vectors, injections=(), width=1):
    """Run both backends frame by frame, asserting equality throughout."""
    cc = compile_circuit(circuit)
    ev = make_simulator(cc, width=width, injections=injections,
                        backend="event")
    cg = make_simulator(cc, width=width, injections=injections,
                        backend="codegen")
    assert isinstance(cg, CodegenFrameSimulator)
    for vec in vectors:
        packed = [pack_const(v, width) for v in vec]
        assert ev.step(packed) == cg.step(packed)
        assert ev.get_state() == cg.get_state()
        assert ev.read_next_state() == cg.read_next_state()
    return ev, cg


class TestLogicEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_random_circuits_x_inputs(self, data):
        circuit = data.draw(full_gateset_circuits())
        length = data.draw(st.integers(1, 6))
        vectors = [
            [data.draw(st.integers(0, 2)) for _ in circuit.inputs]
            for _ in range(length)
        ]
        _step_both(circuit, vectors)

    def test_every_gate_type_alone(self):
        for gtype in _ALL_COMB:
            c = Circuit(f"one_{gtype.name}")
            a = c.add_input("a")
            b = c.add_input("b")
            if gtype in (GateType.CONST0, GateType.CONST1):
                ins = []
            elif gtype in (GateType.NOT, GateType.BUF):
                ins = [a]
            else:
                ins = [a, b]
            c.add_gate("y", gtype, ins)
            c.add_output("y")
            vectors = [[va, vb] for va in (0, 1, X) for vb in (0, 1, X)]
            _step_both(c, vectors)

    def test_internal_net_read_falls_back_to_full_sweep(self):
        circuit = s27()
        cc = compile_circuit(circuit)
        ev = make_simulator(cc, width=1, backend="event")
        cg = make_simulator(cc, width=1, backend="codegen")
        rng = random.Random(3)
        for _ in range(10):
            vec = [pack_const(rng.getrandbits(1), 1) for _ in circuit.inputs]
            ev.step(vec)
            cg.step(vec)
            for net in circuit.nets:
                assert ev.read(net) == cg.read(net), net

    def test_wide_words(self):
        circuit = s27()
        rng = random.Random(11)
        vectors = [
            [rng.choice([0, 1, X]) for _ in circuit.inputs] for _ in range(12)
        ]
        _step_both(circuit, vectors, width=96)


class TestFaultEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_fault_sim_matches_event(self, data):
        circuit = data.draw(full_gateset_circuits())
        faults = full_fault_list(circuit)
        if len(faults) > 24:
            start = data.draw(st.integers(0, len(faults) - 24))
            faults = faults[start : start + 24]
        length = data.draw(st.integers(1, 6))
        vectors = [
            [data.draw(st.integers(0, 2)) for _ in circuit.inputs]
            for _ in range(length)
        ]
        r_ev = FaultSimulator(circuit, width=8, backend="event").run(
            vectors, faults, stop_on_all_detected=False)
        r_cg = FaultSimulator(circuit, width=8, backend="codegen").run(
            vectors, faults, stop_on_all_detected=False)
        assert r_ev.detected == r_cg.detected  # same faults, same frames
        assert r_ev.fault_states == r_cg.fault_states
        assert r_ev.good_outputs == r_cg.good_outputs
        assert r_ev.good_state == r_cg.good_state

    def test_all_injection_kinds_explicit(self):
        # fanout net feeds a gate pin AND a flip-flop D pin, so the fault
        # list carries stem, gate-pin and FF-pin faults for net "s"
        c = Circuit("kinds")
        a = c.add_input("a")
        b = c.add_input("b")
        c.add_gate("s", GateType.AND, [a, b])
        c.add_gate("y", GateType.NOR, ["s", b])
        c.add_gate("q", GateType.DFF, ["s"])
        c.add_gate("z", GateType.XOR, ["q", a])
        c.add_output("y")
        c.add_output("z")
        faults = full_fault_list(c)
        kinds = {(f.is_branch, f.gate == "q") for f in faults}
        assert (False, False) in kinds  # stems
        assert (True, False) in kinds  # gate-pin branches
        assert (True, True) in kinds  # FF D-pin branches
        rng = random.Random(2)
        vectors = [
            [rng.choice([0, 1, X]) for _ in c.inputs] for _ in range(16)
        ]
        r_ev = FaultSimulator(c, width=16, backend="event").run(
            vectors, faults, stop_on_all_detected=False)
        r_cg = FaultSimulator(c, width=16, backend="codegen").run(
            vectors, faults, stop_on_all_detected=False)
        assert r_ev.detected == r_cg.detected
        assert r_ev.fault_states == r_cg.fault_states

    def test_stem_fault_on_flip_flop_output(self):
        c = Circuit("ffstem")
        a = c.add_input("a")
        c.add_gate("q", GateType.DFF, [a])
        c.add_gate("y", GateType.BUF, ["q"])
        c.add_output("y")
        cc = compile_circuit(c)
        inj = [injection_for(cc, Fault("q", 0), 1)]
        ev, cg = _step_both(c, [[1], [1], [0]], injections=inj)
        assert ev.get_state() == cg.get_state()

    def test_signatures_match(self):
        circuit = s27()
        faults = full_fault_list(circuit)
        rng = random.Random(4)
        vectors = [
            [rng.getrandbits(1) for _ in circuit.inputs] for _ in range(20)
        ]
        r_ev = FaultSimulator(circuit, width=32, backend="event").run(
            vectors, faults, record_signatures=True)
        r_cg = FaultSimulator(circuit, width=32, backend="codegen").run(
            vectors, faults, record_signatures=True)
        assert r_ev.signatures == r_cg.signatures


def _run_both(circuit, vectors, faults, width, **kwargs):
    """Fault-simulate on event and codegen."""
    return {
        backend: FaultSimulator(circuit, width=width, backend=backend).run(
            vectors, faults, **kwargs
        )
        for backend in ("event", "codegen")
    }


def _assert_equivalent(runs):
    ref, got = runs["event"], runs["codegen"]
    assert got.detected == ref.detected
    assert list(got.detected) == list(ref.detected)  # insertion order too
    assert got.fault_states == ref.fault_states
    assert got.good_outputs == ref.good_outputs
    assert got.good_state == ref.good_state


class TestWidthsAndIncrementalRegimes:
    """Word widths from one slot to many words, early stop, carried state."""

    @pytest.mark.parametrize("width", [1, 64, 256, 1024])
    def test_s27_all_widths(self, width):
        circuit = s27()
        rng = random.Random(width)
        vectors = [
            [rng.choice([0, 1, X]) for _ in circuit.inputs] for _ in range(20)
        ]
        _assert_equivalent(_run_both(circuit, vectors, full_fault_list(circuit),
                                     width, stop_on_all_detected=False))

    def test_early_stop_equivalence(self):
        circuit = s27()
        rng = random.Random(5)
        vectors = [
            [rng.getrandbits(1) for _ in circuit.inputs] for _ in range(40)
        ]
        _assert_equivalent(_run_both(circuit, vectors, full_fault_list(circuit),
                                     64, stop_on_all_detected=True))

    def test_incremental_carried_states(self):
        # three blocks with faulty-machine states carried between calls,
        # the regime the driver's validation and campaign merges run
        circuit = iscas89("s298")
        faults = full_fault_list(circuit)[:80]
        rng = random.Random(9)
        blocks = [
            [[rng.getrandbits(1) for _ in circuit.inputs] for _ in range(8)]
            for _ in range(3)
        ]
        runs = {}
        for backend in ("event", "codegen"):
            sim = FaultSimulator(circuit, width=64, backend=backend)
            remaining = list(faults)
            states: dict = {}
            good = [X] * len(compile_circuit(circuit).ff_out)
            detected = {}
            for block in blocks:
                res = sim.run(block, remaining, good_state=good,
                              fault_states=states)
                detected.update(res.detected)
                remaining = [f for f in remaining if f not in res.detected]
                good = res.good_state
                states = res.fault_states
            runs[backend] = (detected, states, good)
        assert runs["codegen"] == runs["event"]

    def test_grade_blocks_consistency(self):
        circuit = s27()
        rng = random.Random(6)
        blocks = [
            [[rng.getrandbits(1) for _ in circuit.inputs] for _ in range(6)]
            for _ in range(4)
        ]
        graded = {}
        for backend in ("event", "codegen"):
            tests = GradedTestSet(
                FaultSimulator(circuit, width=32, backend=backend),
                full_fault_list(circuit),
            )
            kept = [tests.apply(block) for block in blocks]
            graded[backend] = (kept, tests.blocks, tests.detected,
                               tests.fault_states)
        assert graded["codegen"] == graded["event"]


class TestKernelCache:
    def test_same_shape_shares_kernel(self):
        circuit = s27()
        cc = compile_circuit(circuit)
        f0, f1 = Fault("G10", 0), Fault("G10", 0)
        a = CodegenFrameSimulator(cc, width=4,
                                  injections=[injection_for(cc, f0, 0b0001)])
        b = CodegenFrameSimulator(cc, width=4,
                                  injections=[injection_for(cc, f1, 0b0100)])
        assert a._kernel is b._kernel  # masks differ, shape shared
        assert a._kernel_masks != b._kernel_masks

    def test_signature_ignores_masks(self):
        circuit = s27()
        cc = compile_circuit(circuit)
        i1 = injection_for(cc, Fault("G10", 1), 0b01)
        i2 = injection_for(cc, Fault("G10", 1), 0b10)
        assert injection_signature([i1]) == injection_signature([i2])

    def test_ff_pin_injection_not_in_signature(self):
        c = Circuit("ffpin")
        a = c.add_input("a")
        b = c.add_input("b")
        c.add_gate("s", GateType.OR, [a, b])
        c.add_gate("q", GateType.DFF, ["s"])
        c.add_gate("y", GateType.AND, ["q", "s"])
        c.add_output("y")
        cc = compile_circuit(c)
        ff_fault = Fault("s", 1, gate="q", pin=0)
        inj = injection_for(cc, ff_fault, 1)
        assert inj.ff_pos is not None
        assert injection_signature([inj]) == ()

    def test_generated_source_is_plain_statements(self):
        cc = compile_circuit(s27())
        src = generate_kernel_source(cc, [])
        assert src.startswith("def _kernel(v1, v0, mask):")
        assert "for " not in src and "if " not in src  # straight-line
        assert f"v1[{cc.po[0]}]" in src

    def test_cache_lives_on_compiled_circuit(self):
        circuit = s27()
        cc = compile_circuit(circuit)
        kernel_for(cc, [])
        assert hasattr(cc, "_codegen_kernels")


class TestBackendRegistry:
    def test_available(self):
        assert type(make_simulator(s27(), width=2, backend="event")) is FrameSimulator
        assert isinstance(make_simulator(s27(), width=2, backend="codegen"),
                          CodegenFrameSimulator)

    def test_resolve_default(self):
        assert resolve_backend(None) == "event"
        assert type(make_simulator(s27(), width=2)) is FrameSimulator

    def test_unknown_backend_rejected(self):
        # "numpy" named a backend that was removed; it is rejected, not
        # aliased
        for name in ("vhdl", "numpy"):
            with pytest.raises(ValueError, match="unknown simulation backend"):
                resolve_backend(name)


class TestCliPlumbing:
    def test_driver_backend_identical_results(self):
        # GA fitness is the one production path on codegen; rerunning the
        # GA-HITEC schedule with fitness on the event oracle must change
        # nothing
        from repro.hybrid.driver import gahitec
        from repro.hybrid.passes import gahitec_schedule

        runs = {}
        for be in ("codegen", "event"):
            driver = gahitec(s27(), seed=3)
            assert driver.ga_justifier.backend == "codegen"
            driver.ga_justifier.backend = be
            res = driver.run(gahitec_schedule(x=4, time_scale=None))
            runs[be] = (res.test_set, res.detected)
        assert runs["event"] == runs["codegen"]
        assert runs["codegen"][1]


class TestCompileCacheLifetime:
    def test_cache_entry_dies_with_compiled_form(self):
        from repro.simulation import compiled as compiled_mod

        # collect first: an earlier test's garbage must not be freed
        # inside the measurement
        gc.collect()
        before = len(compiled_mod._CACHE)
        compile_circuit(s27())  # result dropped immediately
        gc.collect()
        assert len(compiled_mod._CACHE) == before

    def test_cache_hit_while_alive(self):
        circuit = s27()
        cc = compile_circuit(circuit)
        assert compile_circuit(circuit) is cc
