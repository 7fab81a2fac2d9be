"""Tests for the random / weighted-random baselines."""

import pytest

from repro.analysis import evaluate_test_set
from repro.baselines import (
    RandomAtpgParams,
    RandomTestGenerator,
    WeightedRandomTestGenerator,
)
from repro.circuits import iscas89, s27
from repro.faults.collapse import collapse_faults
from repro.simulation.fault_sim import FaultSimulator


@pytest.mark.parametrize("gen_cls", [RandomTestGenerator,
                                     WeightedRandomTestGenerator])
class TestBaselines:
    def test_covers_most_of_s27(self, gen_cls):
        result = gen_cls(s27(), seed=1).run(RandomAtpgParams())
        assert len(result.detected) >= 0.85 * result.total_faults

    def test_claims_verified_by_resimulation(self, gen_cls):
        result = gen_cls(s27(), seed=1).run(RandomAtpgParams())
        report = evaluate_test_set(s27(), result.test_set, collapse_faults(s27()))
        assert set(report.detected) == set(result.detected)

    def test_reproducible(self, gen_cls):
        a = gen_cls(s27(), seed=7).run(RandomAtpgParams())
        b = gen_cls(s27(), seed=7).run(RandomAtpgParams())
        assert a.test_set == b.test_set

    def test_max_vectors_respected(self, gen_cls):
        params = RandomAtpgParams(block_len=8, max_vectors=16)
        result = gen_cls(s27(), seed=1).run(params)
        assert len(result.test_set) <= 24  # cap checked per block

    def test_time_limit(self, gen_cls):
        result = gen_cls(s27(), seed=1).run(RandomAtpgParams(), time_limit=0.0)
        assert result.test_set == []

    def test_stats_are_cumulative(self, gen_cls):
        result = gen_cls(s27(), seed=1).run(RandomAtpgParams())
        dets = [p.detected for p in result.passes]
        assert dets == sorted(dets)

    def test_never_claims_untestable(self, gen_cls):
        result = gen_cls(s27(), seed=1).run(RandomAtpgParams())
        assert result.untestable == []

    def test_last_emitted_block_detects_a_fault(self, gen_cls):
        """The blocks that ended the run by detecting nothing are not
        emitted: the test set ends with the last detecting block."""
        circuit = iscas89("s298")
        params = RandomAtpgParams(block_len=16, stale_blocks=2)
        result = gen_cls(circuit, seed=1).run(params)
        last = result.blocks[-1]
        assert last + params.block_len == len(result.test_set)
        sim, faults = FaultSimulator(circuit), collapse_faults(circuit)
        before = sim.run(result.test_set[:last], faults).detected
        assert set(sim.run(result.test_set, faults).detected) > set(before)


class TestWeightedSpecifics:
    def test_weights_stay_in_bounds(self):
        gen = WeightedRandomTestGenerator(s27(), seed=2)
        gen.run(RandomAtpgParams(block_len=8))
        assert all(0.1 <= w <= 0.9 for w in gen.weights())

    def test_weights_adapt_away_from_uniform(self):
        gen = WeightedRandomTestGenerator(s27(), seed=2, candidates=4)
        gen.run(RandomAtpgParams(block_len=8))
        assert gen.weights() != [0.5] * 4
