"""Tests for the sequential test generator (HITEC-style engine)."""

import pytest

from repro.atpg.context import AtpgContext
from repro.atpg.hitec import SequentialTestGenerator
from repro.atpg.hitec import TestGenStatus as GenStatus
from repro.atpg.justify import JustifyResult, JustifyStatus, justify_state
from repro.atpg.podem import Limits
from repro.circuits import (
    REDUNDANT_FAULT,
    redundant_and,
    s27,
    two_stage_pipeline,
    untestable_stem,
)
from repro.faults.collapse import collapse_faults
from repro.faults.model import Fault
from repro.simulation.compiled import compile_circuit
from repro.simulation.encoding import X
from repro.simulation.fault_sim import FaultSimulator


def det_justifier(cc, depth=12, backtracks=20_000):
    def justify(required):
        return justify_state(cc, required, depth, Limits(backtracks))

    return justify


def refusing_justifier(required):
    """A justifier that always gives up (forces propagation backtracks)."""
    return JustifyResult(JustifyStatus.BOUNDED)


class TestGenerate:
    def test_all_s27_faults_detected(self):
        circuit = s27()
        cc = compile_circuit(circuit)
        gen = SequentialTestGenerator(AtpgContext(cc), max_frames=8)
        sim = FaultSimulator(cc)
        for fault in collapse_faults(circuit):
            res = gen.generate(fault, det_justifier(cc), Limits(20_000))
            assert res.status is GenStatus.DETECTED, str(fault)
            vectors = [[0 if v == X else v for v in vec] for vec in res.sequence]
            check = sim.run(vectors, [fault])
            assert fault in check.detected, f"{fault}: sequence does not detect"

    def test_untestable_faults_proven(self):
        cc = compile_circuit(redundant_and())
        gen = SequentialTestGenerator(AtpgContext(cc), max_frames=2)
        res = gen.generate(REDUNDANT_FAULT, det_justifier(cc), Limits(20_000))
        assert res.status is GenStatus.UNTESTABLE

        circuit, fault = untestable_stem()
        cc = compile_circuit(circuit)
        gen = SequentialTestGenerator(AtpgContext(cc), max_frames=2)
        res = gen.generate(fault, det_justifier(cc), Limits(20_000))
        assert res.status is GenStatus.UNTESTABLE

    def test_zero_budget_aborts(self):
        circuit = s27()
        cc = compile_circuit(circuit)
        gen = SequentialTestGenerator(AtpgContext(cc), max_frames=4)
        res = gen.generate(
            Fault("G10", 0), refusing_justifier, Limits(max_backtracks=0)
        )
        assert res.status in (GenStatus.ABORTED, GenStatus.DETECTED)

    def test_justification_prefix_recorded(self):
        circuit = two_stage_pipeline()
        cc = compile_circuit(circuit)
        gen = SequentialTestGenerator(AtpgContext(cc), max_frames=4)
        # a s-a-0 on the pipeline input: no state requirement at all
        res = gen.generate(Fault("a", 0), det_justifier(cc), Limits(20_000))
        assert res.status is GenStatus.DETECTED
        assert res.justification_frames == 0

    def test_flow_counters_populated(self):
        circuit = s27()
        cc = compile_circuit(circuit)
        gen = SequentialTestGenerator(AtpgContext(cc), max_frames=8)
        total = dict(excite=0, sols=0, jcalls=0)
        for fault in collapse_faults(circuit):
            res = gen.generate(fault, det_justifier(cc), Limits(20_000))
            total["excite"] += res.counters.excite_attempts
            total["sols"] += res.counters.propagation_solutions
            total["jcalls"] += res.counters.justify_calls
        assert total["excite"] > 0
        assert total["sols"] > 0
        assert total["jcalls"] > 0  # some faults needed state justification

    def test_refusing_justifier_never_detects_state_dependent_faults(self):
        circuit = s27()
        cc = compile_circuit(circuit)
        gen = SequentialTestGenerator(AtpgContext(cc), max_frames=8)
        outcomes = set()
        for fault in collapse_faults(circuit):
            res = gen.generate(fault, refusing_justifier, Limits(5_000))
            outcomes.add(res.status)
            if res.status is GenStatus.DETECTED:
                # must have been detectable without any state requirement
                assert res.justification_frames == 0
        assert GenStatus.ABORTED in outcomes  # some faults need state
