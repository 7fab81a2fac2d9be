"""Tests for the PROOFS-style parallel fault simulator."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.circuit.gates import GateType
from repro.circuit.netlist import Circuit
from repro.circuits import s27
from repro.faults.collapse import collapse_faults
from repro.faults.model import Fault, full_fault_list
from repro.simulation.compiled import compile_circuit
from repro.simulation.encoding import X, pack_const, unpack
from repro.simulation.fault_sim import (
    FaultSimulator,
    GradedTestSet,
    fault_coverage,
    injection_for,
)
from repro.simulation.logic_sim import FrameSimulator

from ..conftest import random_circuits


def serial_detects(circuit, fault, vectors) -> bool:
    """Single-fault, single-slot oracle: simulate good and faulty serially."""
    cc = compile_circuit(circuit)
    good = FrameSimulator(cc, width=1)
    bad = FrameSimulator(cc, width=1, injections=[injection_for(cc, fault, 1)])
    for vec in vectors:
        g = good.step([pack_const(v, 1) for v in vec])
        b = bad.step([pack_const(v, 1) for v in vec])
        for (g1, g0), (b1, b0) in zip(g, b):
            gv = unpack((g1, g0), 1)[0]
            bv = unpack((b1, b0), 1)[0]
            if gv != X and bv != X and gv != bv:
                return True
    return False


class TestAgainstSerialOracle:
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_parallel_matches_serial(self, data):
        circuit = data.draw(random_circuits(max_pi=3, max_ff=2, max_gates=8))
        faults = collapse_faults(circuit)[:12]
        length = data.draw(st.integers(1, 6))
        vectors = [
            [data.draw(st.integers(0, 1)) for _ in circuit.inputs]
            for _ in range(length)
        ]
        result = FaultSimulator(circuit, width=8).run(vectors, faults)
        for fault in faults:
            assert (fault in result.detected) == serial_detects(
                circuit, fault, vectors
            ), f"{fault} disagreement"

    def test_s27_full_agreement(self):
        circuit = s27()
        rng = random.Random(5)
        vectors = [
            [rng.getrandbits(1) for _ in circuit.inputs] for _ in range(30)
        ]
        faults = collapse_faults(circuit)
        result = FaultSimulator(circuit, width=64).run(vectors, faults)
        for fault in faults:
            assert (fault in result.detected) == serial_detects(
                circuit, fault, vectors
            )


class TestDetectionRecords:
    def test_detection_frame_is_first(self):
        c = Circuit("direct")
        c.add_input("a")
        c.add_gate("y", GateType.BUF, ["a"])
        c.add_output("y")
        fault = Fault("y", 0)
        result = FaultSimulator(c).run([[0], [1], [1]], [fault])
        assert result.detected[fault] == 1  # first vector with a=1

    def test_x_good_output_never_detects(self):
        c = Circuit("xout")
        c.add_input("a")
        c.add_gate("q", GateType.DFF, ["a"])
        c.add_gate("y", GateType.BUF, ["q"])
        c.add_output("y")
        # in frame 0 the good output is X: no detection allowed
        result = FaultSimulator(c).run([[1]], [Fault("y", 0)])
        assert not result.detected

    def test_states_persist_across_calls(self):
        c = Circuit("persist")
        c.add_input("a")
        c.add_gate("q", GateType.DFF, ["a"])
        c.add_gate("y", GateType.BUF, ["q"])
        c.add_output("y")
        fault = Fault("a", 0)
        sim = FaultSimulator(c)
        # first call: the difference is captured in the flip-flop only
        r1 = sim.run([[1]], [fault])
        assert fault not in r1.detected
        assert r1.fault_states[fault] == [0]  # faulty circuit latched the stuck 0
        # second call continues from the carried states: good q=1, faulty q=0
        r2 = sim.run(
            [[0]], [fault], good_state=r1.good_state, fault_states=r1.fault_states
        )
        assert fault in r2.detected

    def test_detected_faults_drop_from_states(self):
        circuit = s27()
        faults = collapse_faults(circuit)
        rng = random.Random(1)
        vectors = [[rng.getrandbits(1) for _ in circuit.inputs] for _ in range(50)]
        result = FaultSimulator(circuit).run(vectors, faults)
        assert set(result.fault_states) == set(faults) - set(result.detected)

    def test_run_leaves_its_start_states_unchanged(self):
        circuit = s27()
        faults = collapse_faults(circuit)
        vectors = _random_vectors(circuit, 16, seed=2)
        sim = FaultSimulator(circuit)
        first = sim.run(vectors[:8], faults)
        good = list(first.good_state)
        states = {f: list(s) for f, s in first.fault_states.items()}
        remaining = [f for f in faults if f not in first.detected]
        second = sim.run(vectors[8:], remaining, good_state=good, fault_states=states)
        assert second.detected  # the second run must have states to drop
        assert good == first.good_state
        assert states == first.fault_states


def _random_vectors(circuit, count, seed):
    rng = random.Random(seed)
    return [[rng.getrandbits(1) for _ in circuit.inputs] for _ in range(count)]


def _snapshot(tests):
    return (
        list(tests.remaining),
        [list(v) for v in tests.vectors],
        list(tests.blocks),
        dict(tests.detected),
        list(tests.good_state),
        {f: list(s) for f, s in tests.fault_states.items()},
    )


class TestGradedTestSet:
    """One class grows every test set under incremental grading."""

    def test_rejected_sequence_changes_nothing(self):
        circuit = s27()
        vectors = _random_vectors(circuit, 16, seed=2)
        tests = GradedTestSet(FaultSimulator(circuit), collapse_faults(circuit))
        assert tests.apply(vectors[:8])
        before = _snapshot(tests)
        assert not tests.apply(vectors[8:], keep=lambda detected: False)
        assert _snapshot(tests) == before

    def test_kept_sequence_equals_one_run_from_the_same_states(self):
        circuit = s27()
        vectors = _random_vectors(circuit, 16, seed=2)
        tests = GradedTestSet(FaultSimulator(circuit), collapse_faults(circuit))
        assert tests.apply(vectors[:8])
        remaining, _, blocks, detected, good, states = _snapshot(tests)
        once = FaultSimulator(circuit).run(
            vectors[8:], remaining, good_state=good, fault_states=states
        )
        assert once.detected
        assert tests.apply(vectors[8:])
        assert tests.vectors == vectors
        assert tests.blocks == blocks + [8]
        assert tests.detected == {**detected, **dict.fromkeys(once.detected, 8)}
        assert tests.remaining == [f for f in remaining if f not in once.detected]
        assert tests.good_state == once.good_state
        assert tests.fault_states == once.fault_states


class TestCoverageHelper:
    def test_coverage_fraction(self):
        circuit = s27()
        faults = collapse_faults(circuit)
        rng = random.Random(1)
        vectors = [[rng.getrandbits(1) for _ in circuit.inputs] for _ in range(100)]
        cov = fault_coverage(circuit, vectors, faults)
        assert 0.9 <= cov <= 1.0

    def test_empty_faults(self):
        assert fault_coverage(s27(), [[0, 0, 0, 0]], []) == 0.0

    def test_batching_matches_single_batch(self):
        circuit = s27()
        faults = collapse_faults(circuit)
        rng = random.Random(9)
        vectors = [[rng.getrandbits(1) for _ in circuit.inputs] for _ in range(20)]
        wide = FaultSimulator(circuit, width=64).run(vectors, faults)
        narrow = FaultSimulator(circuit, width=4).run(vectors, faults)
        assert wide.detected == narrow.detected
