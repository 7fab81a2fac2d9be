"""Deeper driver behaviours: pass-1 untestables, blocks, validation accounting."""

import pytest

from repro.analysis.compaction import split_blocks
from repro.circuits import redundant_and, s27, untestable_stem
from repro.hybrid import HybridTestGenerator, gahitec, gahitec_schedule


def quick(x=12):
    return gahitec_schedule(x=x, time_scale=None, backtrack_base=100)


class TestPassOneUntestables:
    """Section VI asks for untestable faults to be removed before the GA
    passes.  Pass 1 already proves, before its justifier runs, every
    fault with no propagation solution: exactly the faults an up-front
    search with a refuse-all justifier proved (the names below)."""

    @pytest.mark.parametrize("make, proven", [
        (redundant_and, ["a->t3.0 s-a-0"]),
        (lambda: untestable_stem()[0],
         ["a s-a-0", "a s-a-1", "a->y.0 s-a-0"]),
        (s27, []),
    ], ids=["redundant_and", "untestable_stem", "s27"])
    def test_one_ga_pass_proves_them_without_ga_work(self, make, proven):
        circuit = make()
        result = gahitec(circuit, seed=0).run(
            gahitec_schedule(
                x=max(4, 4 * circuit.sequential_depth), num_passes=1,
                time_scale=None, backtrack_base=100, justify_depth=3,
            )
        )
        assert sorted(str(f) for f in result.untestable) == proven
        generations = {r.fault: r.ga_generations for r in result.report.faults}
        assert all(generations[name] == 0 for name in proven)


class TestBlocks:
    def test_blocks_partition_test_set(self):
        result = gahitec(s27(), seed=1).run(quick())
        assert result.blocks
        assert result.blocks[0] == 0
        assert result.blocks == sorted(result.blocks)
        assert all(0 <= b < len(result.test_set) for b in result.blocks)
        blocks = split_blocks(result.test_set, result.blocks)
        assert sum(len(b) for b in blocks) == len(result.test_set)

    def test_detected_indices_are_block_starts(self):
        result = gahitec(s27(), seed=1).run(quick())
        starts = set(result.blocks)
        assert all(base in starts for base in result.detected.values())


class TestAccounting:
    def test_targeted_counts_bounded_by_faults(self):
        result = gahitec(s27(), seed=1).run(quick())
        for stats in result.passes:
            assert stats.targeted <= result.total_faults
            assert stats.aborted <= stats.targeted

    def test_validation_failures_rare_on_s27(self):
        """In-engine verification should leave commit-time rejects at ~0."""
        result = gahitec(s27(), seed=1).run(quick())
        assert sum(p.validation_failures for p in result.passes) == 0

    def test_time_accumulates_across_passes(self):
        result = gahitec(s27(), seed=1).run(quick())
        times = [p.time_s for p in result.passes]
        assert times == sorted(times)

    def test_max_frames_override(self):
        driver = HybridTestGenerator(s27(), seed=1, max_frames=4)
        assert driver.max_frames == 4
        assert driver.seqgen.max_frames == 4

    def test_default_max_frames_heuristic(self):
        driver = HybridTestGenerator(s27(), seed=1)
        assert 4 <= driver.max_frames <= 16
