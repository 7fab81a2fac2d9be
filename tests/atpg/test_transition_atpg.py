"""Transition-fault ATPG end to end: detections, grading, knowledge walls.

The engine's unrolled view of a transition fault is an optimistic
approximation, so every DETECTED here has survived true-semantics
verification by fault simulation — which is what these tests lean on:
the hybrid driver must reach nonzero launch/capture detections on real
ISCAS89 circuits, the tests it emits must grade identically on both
backends, and knowledge mined under stuck-at must never leak into a
transition run.
"""

import pytest

from repro.atpg.context import AtpgContext
from repro.circuits import iscas89, s27
from repro.faults.collapse import collapse_faults
from repro.hybrid.driver import HybridTestGenerator
from repro.hybrid.passes import gahitec_schedule
from repro.knowledge import KnowledgeError, StateKnowledge, save_knowledge
from repro.simulation.fault_sim import FaultSimulator

GRADING_BACKENDS = ["event", "codegen"]


def transition_run(circuit, fault_count=24, seed=1):
    faults = collapse_faults(circuit, "transition")[:fault_count]
    driver = HybridTestGenerator(
        circuit,
        seed=seed,
        faults=faults,
        fault_model="transition",
    )
    schedule = gahitec_schedule(x=8, num_passes=2, time_scale=None)
    return faults, driver.run(schedule)


class TestTransitionCampaigns:
    @pytest.mark.parametrize("name", ["s298", "s344"])
    def test_nonzero_detections_with_identical_grades(self, name):
        circuit = iscas89(name)
        faults, result = transition_run(circuit)
        assert result.detected, f"no transition detections on {name}"
        assert all(f.model == "transition" for f in result.detected)
        # the emitted tests grade bit-identically on every backend
        grades = []
        for backend in GRADING_BACKENDS:
            sim = FaultSimulator(circuit, width=8, backend=backend)
            outcome = sim.run(result.test_set, faults)
            grades.append((outcome.detected, outcome.good_state))
        assert all(g == grades[0] for g in grades[1:])
        # every driver-claimed detection is a true launch/capture detect
        assert set(result.detected) <= set(grades[0][0])

    def test_never_claims_untestable(self):
        # the unrolled window is an approximation under transition:
        # exhaustion must report ABORTED, not UNTESTABLE
        circuit = s27()
        faults = collapse_faults(circuit, "transition")
        driver = HybridTestGenerator(
            circuit, seed=0, faults=faults, fault_model="transition"
        )
        result = driver.run(gahitec_schedule(x=8, num_passes=2, time_scale=None))
        assert not result.untestable
        assert result.detected


class TestKnowledgePartitioning:
    def test_fingerprints_are_model_partitioned(self):
        circuit = s27()
        sa = AtpgContext(circuit)
        tr = AtpgContext(circuit, fault_model="transition")
        assert sa.knowledge_fingerprint == "unconstrained"
        assert tr.knowledge_fingerprint == "unconstrained|model[transition]"

    def test_stuck_at_store_rejected_by_transition_run(self):
        circuit = s27()
        store = StateKnowledge(circuit=circuit.name,
                               fingerprint="unconstrained")
        # fine under the default model...
        HybridTestGenerator(circuit, knowledge=store)
        # ...but a transition run must refuse it outright
        with pytest.raises(KnowledgeError):
            HybridTestGenerator(
                circuit, knowledge=store, fault_model="transition"
            )

    def test_stuck_at_sidecar_invisible_to_transition_load(self, tmp_path):
        from repro.knowledge import load_store_for, model_fingerprint

        circuit = s27()
        store = StateKnowledge(circuit=circuit.name,
                               fingerprint="unconstrained")
        store.record_justified({"G5": 1}, [[0, 0, 0, 0]])
        path = str(tmp_path / "knowledge.json")
        save_knowledge({circuit.name: store}, path)
        assert load_store_for(path, circuit.name, "unconstrained") is not None
        fingerprint = model_fingerprint("unconstrained", "transition")
        assert load_store_for(path, circuit.name, fingerprint) is None

    def test_transition_run_mines_model_tagged_facts(self):
        circuit = s27()
        driver = HybridTestGenerator(
            circuit,
            seed=0,
            faults=collapse_faults(circuit, "transition")[:8],
            fault_model="transition",
        )
        driver.run(gahitec_schedule(x=8, num_passes=1, time_scale=None))
        assert driver.knowledge is not None
        assert (
            driver.knowledge.fingerprint
            == "unconstrained|model[transition]"
        )
