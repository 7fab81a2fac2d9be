"""Transition-fault injection: semantics, backend equivalence, cache keys.

The event interpreter is the oracle for the launch/capture semantics
(slow-to-rise keeps a 0 one extra frame, slow-to-fall keeps a 1); the
codegen backend must agree with it bit for bit, including on
mixed stuck-at + transition fault universes.  The persistent kernel
cache must treat the two models as different kernels: a stuck-at-warmed
cache misses (never corrupt-loads) under transition injection.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.circuit.gates import GateType
from repro.circuit.netlist import Circuit
from repro.circuits import iscas89, s27
from repro.faults.collapse import collapse_faults
from repro.faults.model import Fault
from repro.simulation import kernel_cache
from repro.simulation.codegen import compile_stats, kernel_for
from repro.simulation.compiled import compile_circuit
from repro.simulation.fault_sim import (
    FaultSimulator,
    GradedTestSet,
    injection_for,
)

from ..conftest import random_circuits

BACKENDS = ["event", "codegen"]


def buf_circuit() -> Circuit:
    c = Circuit("buf")
    c.add_input("a")
    c.add_gate("y", GateType.BUF, ["a"])
    c.add_output("y")
    return c


def run_backend(circuit, vectors, faults, backend, width=8):
    sim = FaultSimulator(circuit, width=width, backend=backend)
    return sim.run(vectors, faults)


class TestLaunchCaptureSemantics:
    """Hand-computed oracle pins for the event interpreter itself."""

    str_fault = Fault("a", 0, model="transition")  # slow-to-rise
    stf_fault = Fault("a", 1, model="transition")  # slow-to-fall

    def test_rising_edge_detects_slow_to_rise(self):
        result = run_backend(
            buf_circuit(), [[0], [1]], [self.str_fault], "event"
        )
        assert result.detected == {self.str_fault: 1}

    def test_static_site_never_detects(self):
        for vectors in ([[1], [1]], [[0], [0]]):
            result = run_backend(
                buf_circuit(), vectors, [self.str_fault], "event"
            )
            assert not result.detected

    def test_falling_edge_detects_slow_to_fall(self):
        result = run_backend(
            buf_circuit(), [[1], [0]], [self.stf_fault], "event"
        )
        assert result.detected == {self.stf_fault: 1}

    def test_wrong_polarity_edge_is_blind(self):
        result = run_backend(
            buf_circuit(), [[1], [0]], [self.str_fault], "event"
        )
        assert not result.detected

    def test_single_frame_cannot_detect(self):
        # frame 0 has no previous frame: the faulty site reads X, and an
        # X never disagrees observably with the good value
        for vec in ([[1]], [[0]]):
            result = run_backend(
                buf_circuit(), vec, [self.str_fault, self.stf_fault], "event"
            )
            assert not result.detected

    def test_delayed_by_exactly_one_frame(self):
        # 0,1,1: the slow-to-rise site recovers at frame 2 — only the
        # launch frame differs from the good machine
        result = run_backend(
            buf_circuit(), [[0], [1], [1]], [self.str_fault], "event"
        )
        assert result.detected == {self.str_fault: 1}


def ff_circuit() -> Circuit:
    """A flip-flop whose output net is readable: d -> ff -> y."""
    c = Circuit("ffc")
    c.add_input("d")
    c.add_gate("ff", GateType.DFF, ["d"])
    c.add_gate("y", GateType.BUF, ["ff"])
    c.add_output("y")
    return c


class TestCarriedStateSoundness:
    """Carried fault states must hold the raw latch value, not the forced
    read value: persisting the forced value re-applies the transition
    delay in the next run and can fabricate detections the true faulty
    machine never produces."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_ff_output_stem_carries_raw_state(self, backend):
        # ff s-t-f: after d=1 then d=0 the latch holds raw 0, but the
        # forced (slow-to-fall) read of the net is still 1
        fault = Fault("ff", 1, model="transition")
        sim = FaultSimulator(ff_circuit(), width=8, backend=backend)
        result = sim.run([[1], [0]], [fault])
        assert not result.detected  # no feedback: never observable here
        assert result.fault_states[fault] == [0]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_incremental_detection_subset_of_scratch(self, backend):
        # splitting a sequence into carried-state blocks loses only the
        # cross-block previous-frame values (reset to X), which is
        # conservative: the incremental run must never claim a fault the
        # whole-sequence run does not
        import random

        circuit = iscas89("s27")
        faults = collapse_faults(circuit, "transition")
        npi = len(circuit.inputs)
        for seed in range(3):
            rng = random.Random(seed)
            vectors = [
                [rng.getrandbits(1) for _ in range(npi)] for _ in range(30)
            ]
            scratch = set(
                FaultSimulator(circuit, width=64, backend=backend)
                .run(vectors, list(faults), stop_on_all_detected=False)
                .detected
            )
            good_state = None
            states = {}
            remaining = list(faults)
            incremental = set()
            for i in range(0, len(vectors), 3):
                sim = FaultSimulator(circuit, width=64, backend=backend)
                res = sim.run(
                    vectors[i : i + 3],
                    remaining,
                    good_state=good_state,
                    fault_states=states,
                    stop_on_all_detected=False,
                )
                incremental |= set(res.detected)
                remaining = [f for f in remaining if f not in res.detected]
                good_state = res.good_state
                states = res.fault_states
            assert incremental <= scratch, sorted(
                str(f) for f in incremental - scratch
            )


def assert_results_equal(a, b, label):
    assert a.detected == b.detected, label
    assert a.good_state == b.good_state, label
    assert a.fault_states == b.fault_states, label
    assert a.good_outputs == b.good_outputs, label


class TestBackendEquivalence:
    """Event interpreter as oracle; codegen must match it."""

    @pytest.mark.parametrize("backend", BACKENDS[1:])
    def test_s27_transition_universe(self, backend):
        circuit = s27()
        faults = collapse_faults(circuit, "transition")
        import random

        rng = random.Random(7)
        vectors = [
            [rng.getrandbits(1) for _ in circuit.inputs] for _ in range(48)
        ]
        oracle = run_backend(circuit, vectors, faults, "event")
        other = run_backend(circuit, vectors, faults, backend)
        assert oracle.detected, "oracle found no transitions — dead test"
        assert_results_equal(oracle, other, backend)

    @pytest.mark.parametrize("backend", BACKENDS[1:])
    def test_s298_mixed_universe(self, backend):
        circuit = iscas89("s298")
        faults = (
            collapse_faults(circuit)[:40]
            + collapse_faults(circuit, "transition")[:40]
        )
        import random

        rng = random.Random(11)
        vectors = [
            [rng.getrandbits(1) for _ in circuit.inputs] for _ in range(32)
        ]
        oracle = run_backend(circuit, vectors, faults, "event")
        other = run_backend(circuit, vectors, faults, backend)
        assert_results_equal(oracle, other, backend)

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_random_circuits_all_backends(self, data):
        circuit = data.draw(random_circuits(max_pi=3, max_ff=2, max_gates=8))
        faults = collapse_faults(circuit, "transition")[:10]
        length = data.draw(st.integers(2, 6))
        vectors = [
            [data.draw(st.integers(0, 1)) for _ in circuit.inputs]
            for _ in range(length)
        ]
        oracle = run_backend(circuit, vectors, faults, "event")
        for backend in BACKENDS[1:]:
            other = run_backend(circuit, vectors, faults, backend)
            assert_results_equal(oracle, other, backend)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_grade_blocks_mixed(self, backend):
        circuit = s27()
        faults = (
            collapse_faults(circuit)[:12]
            + collapse_faults(circuit, "transition")[:12]
        )
        import random

        rng = random.Random(3)
        blocks = [
            [
                [rng.getrandbits(1) for _ in circuit.inputs]
                for _ in range(8)
            ]
            for _ in range(3)
        ]

        def grade(backend):
            tests = GradedTestSet(
                FaultSimulator(circuit, width=8, backend=backend), faults
            )
            kept = [tests.apply(block) for block in blocks]
            return kept, tests.detected, tests.good_state, tests.fault_states

        graded = grade(backend)
        assert graded[1], "no block detected anything — dead test"
        assert graded == grade("event")


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv(kernel_cache.ENV_VAR, str(tmp_path))
    return tmp_path


class TestKernelCacheModelSeparation:
    """Model id is part of the kernel key: no cross-model (corrupt) loads."""

    def test_stuck_at_warm_cache_misses_under_transition(self, cache_dir):
        sa = Fault("G10", 0)
        tr = Fault("G10", 0, model="transition")
        cc = compile_circuit(s27())
        kernel_for(cc, [injection_for(cc, sa, 1)])
        # same site, other model, fresh compile: must compile anew (a
        # cross-model disk hit would run stuck-at forcing code)
        warm = compile_circuit(s27())
        before = compile_stats()["kernels"]
        misses = kernel_cache.cache_stats()["misses"]
        kernel_for(warm, [injection_for(warm, tr, 1)])
        assert compile_stats()["kernels"] == before + 1
        assert kernel_cache.cache_stats()["misses"] == misses + 1

    def test_warm_start_compiles_zero_per_model(self, cache_dir):
        sa = Fault("G10", 0)
        tr = Fault("G10", 0, model="transition")
        cold = compile_circuit(s27())
        kernel_for(cold, [injection_for(cold, sa, 1)])
        kernel_for(cold, [injection_for(cold, tr, 1)])
        warm = compile_circuit(s27())
        before = compile_stats()["kernels"]
        hits = kernel_cache.cache_stats()["hits"]
        kernel_for(warm, [injection_for(warm, sa, 1)])
        kernel_for(warm, [injection_for(warm, tr, 1)])
        assert compile_stats()["kernels"] == before
        assert kernel_cache.cache_stats()["hits"] == hits + 2

    def test_warm_transition_grades_match_event(self, cache_dir):
        circuit = s27()
        faults = collapse_faults(circuit, "transition")[:16]
        import random

        rng = random.Random(5)
        vectors = [
            [rng.getrandbits(1) for _ in circuit.inputs] for _ in range(24)
        ]
        # prime the cache with the *stuck-at* universe first
        FaultSimulator(s27(), width=8, backend="codegen").run(
            vectors, collapse_faults(circuit)[:16]
        )
        warm = run_backend(s27(), vectors, faults, "codegen")
        oracle = run_backend(circuit, vectors, faults, "event")
        assert_results_equal(oracle, warm, "warm codegen")
