"""Tests for the simulation-based (GA-only) test generator."""

import pytest

from repro.analysis import evaluate_test_set
from repro.circuits import s27, two_stage_pipeline
from repro.faults.collapse import collapse_faults
from repro.ga.atpg import GAAtpgParams, GASimulationTestGenerator
from repro.simulation.fault_sim import GradedTestSet, split_blocks


class TestGASimulation:
    @pytest.fixture(scope="class")
    def result(self):
        return GASimulationTestGenerator(s27(), seed=1).run(
            GAAtpgParams(seq_len=8)
        )

    def test_detects_all_s27_faults(self, result):
        assert len(result.detected) == result.total_faults

    def test_claims_verified_by_resimulation(self, result):
        report = evaluate_test_set(s27(), result.test_set, collapse_faults(s27()))
        assert set(report.detected) == set(result.detected)

    def test_never_claims_untestable(self, result):
        assert all(p.untestable == 0 for p in result.passes)
        assert result.untestable == []

    def test_detection_indices_point_into_test_set(self, result):
        for fault, base in result.detected.items():
            assert 0 <= base < len(result.test_set)

    def test_rounds_are_cumulative(self, result):
        dets = [p.detected for p in result.passes]
        assert dets == sorted(dets)

    def test_generator_label(self, result):
        assert result.generator == "GA-SIM"

    def test_blocks_split_into_the_kept_sequences(self, monkeypatch):
        kept = []
        real_apply = GradedTestSet.apply

        def apply(self, sequence, keep=bool):
            if not real_apply(self, sequence, keep):
                return False
            kept.append([list(v) for v in sequence])
            return True

        monkeypatch.setattr(GradedTestSet, "apply", apply)
        result = GASimulationTestGenerator(s27(), seed=1).run(
            GAAtpgParams(population_size=8, generations=2, seq_len=4,
                         stale_rounds=2)
        )
        assert len(kept) > 1
        assert split_blocks(result.test_set, result.blocks) == kept


class TestTermination:
    def test_stale_rounds_stop(self):
        # an all-constant circuit: only a couple of faults are detectable,
        # then every round is stale
        gen = GASimulationTestGenerator(two_stage_pipeline(), seed=0)
        result = gen.run(GAAtpgParams(seq_len=4, stale_rounds=2))
        assert len(result.detected) == result.total_faults  # easy circuit

    def test_max_vectors_cap(self):
        gen = GASimulationTestGenerator(s27(), seed=0)
        result = gen.run(GAAtpgParams(seq_len=8, max_vectors=8))
        assert len(result.test_set) <= 16  # cap checked per round

    def test_time_limit_respected(self):
        gen = GASimulationTestGenerator(s27(), seed=0)
        result = gen.run(GAAtpgParams(seq_len=8), time_limit=0.0)
        assert result.test_set == []

    def test_reproducible(self):
        a = GASimulationTestGenerator(s27(), seed=9).run(GAAtpgParams(seq_len=8))
        b = GASimulationTestGenerator(s27(), seed=9).run(GAAtpgParams(seq_len=8))
        assert a.test_set == b.test_set

    def test_explicit_fault_list(self):
        faults = collapse_faults(s27())[:5]
        result = GASimulationTestGenerator(s27(), seed=1).run(
            GAAtpgParams(seq_len=8), faults=faults
        )
        assert result.total_faults == 5
