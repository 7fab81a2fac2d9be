"""Cross-module integration and end-to-end property tests.

These tests tie the whole stack together: every test the ATPG engines
emit must be confirmed by the (independently implemented) fault
simulator, on both crafted and randomly generated circuits.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import (
    Limits,
    SequentialTestGenerator,
    TestGenStatus,
    collapse_faults,
    evaluate_test_set,
    gahitec,
    gahitec_schedule,
    hitec_baseline,
    hitec_schedule,
    justify_state,
)
from repro.atpg.context import AtpgContext
from repro.circuits import gray_fsm, iscas89, two_stage_pipeline
from repro.simulation import FaultSimulator, X, compile_circuit

from .conftest import random_circuits


class TestAtpgSoundness:
    """No engine may ever emit a test that does not detect its fault."""

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.data_too_large])
    @given(data=st.data())
    def test_random_circuits_generate_valid_tests(self, data):
        circuit = data.draw(random_circuits(max_pi=3, max_ff=3, max_gates=10))
        cc = compile_circuit(circuit)
        gen = SequentialTestGenerator(AtpgContext(cc), max_frames=6)
        sim = FaultSimulator(cc)

        def justifier(required):
            return justify_state(cc, required, 8, Limits(2000))

        for fault in collapse_faults(circuit)[:10]:
            res = gen.generate(fault, justifier, Limits(2000))
            if res.status is not TestGenStatus.DETECTED:
                continue
            vectors = [
                [0 if v == X else v for v in vec] for vec in res.sequence
            ]
            outcome = sim.run(vectors, [fault])
            assert fault in outcome.detected, (
                f"{circuit.gates}: {fault} claimed detected but is not"
            )

    @settings(max_examples=12, deadline=None)
    @given(data=st.data())
    def test_untestable_claims_survive_random_attack(self, data):
        """Faults proven untestable must resist long random sequences."""
        circuit = data.draw(random_circuits(max_pi=3, max_ff=2, max_gates=8))
        cc = compile_circuit(circuit)
        gen = SequentialTestGenerator(AtpgContext(cc), max_frames=6)
        sim = FaultSimulator(cc)

        def justifier(required):
            return justify_state(cc, required, 8, Limits(5000))

        untestable = []
        for fault in collapse_faults(circuit)[:8]:
            res = gen.generate(fault, justifier, Limits(5000))
            if res.status is TestGenStatus.UNTESTABLE:
                untestable.append(fault)
        if not untestable:
            return
        rng = random.Random(data.draw(st.integers(0, 999)))
        vectors = [
            [rng.getrandbits(1) for _ in circuit.inputs] for _ in range(200)
        ]
        outcome = sim.run(vectors, untestable)
        assert not outcome.detected, (
            f"'untestable' fault detected by random vectors: "
            f"{list(outcome.detected)} in {circuit.gates}"
        )


class TestDriverEndToEnd:
    def test_both_drivers_agree_on_gray_fsm(self):
        ga = gahitec(gray_fsm(), seed=1).run(
            gahitec_schedule(x=8, time_scale=None, backtrack_base=200)
        )
        det = hitec_baseline(gray_fsm(), seed=1).run(
            hitec_schedule(time_scale=None, backtrack_base=200)
        )
        # the one uncovered fault is rst s-a-0: with the reset stuck off,
        # the faulty machine never leaves the all-X state, so no test can
        # produce a definite good/faulty difference (three-valued
        # semantics); both engines must agree on everything else.
        assert ga.fault_coverage == det.fault_coverage
        assert len(ga.detected) == ga.total_faults - 1

    def test_pipeline_full_coverage(self):
        result = gahitec(two_stage_pipeline(), seed=0).run(
            gahitec_schedule(x=4, time_scale=None, backtrack_base=100)
        )
        assert result.fault_coverage == 1.0

    def test_current_state_toggle_changes_nothing_on_s27(self):
        on = gahitec(iscas89("s27"), seed=3).run(
            gahitec_schedule(x=12, time_scale=None, backtrack_base=100)
        )
        from repro.hybrid import HybridTestGenerator

        off = HybridTestGenerator(
            iscas89("s27"), seed=3, use_current_state=False
        ).run(gahitec_schedule(x=12, time_scale=None, backtrack_base=100))
        # both must fully cover this easy circuit (the knob affects speed,
        # not reachability, here)
        assert on.fault_coverage == off.fault_coverage == 1.0

    def test_reported_vectors_reproduce_coverage_on_standin(self):
        result = gahitec(iscas89("s298"), seed=1).run(
            gahitec_schedule(x=16, num_passes=1, time_scale=0.02,
                             backtrack_base=30)
        )
        report = evaluate_test_set(
            iscas89("s298"), result.test_set, collapse_faults(iscas89("s298"))
        )
        assert set(report.detected) == set(result.detected)
