"""Integration tests for the multi-pass GA-HITEC / HITEC drivers."""

import threading
import time

import pytest

from repro.analysis.coverage import evaluate_test_set
from repro.circuits import (
    REDUNDANT_FAULT,
    iscas89,
    redundant_and,
    s27,
    two_stage_pipeline,
)
from repro.faults.collapse import collapse_faults
from repro.hybrid.driver import HybridTestGenerator, gahitec, hitec_baseline
from repro.hybrid.passes import gahitec_schedule, hitec_schedule


def quick_ga_schedule(x=12):
    return gahitec_schedule(x=x, time_scale=None, backtrack_base=100)


def quick_det_schedule():
    return hitec_schedule(time_scale=None, backtrack_base=100)


class TestGAHitecOnS27:
    @pytest.fixture(scope="class")
    def result(self):
        return gahitec(s27(), seed=1).run(quick_ga_schedule())

    def test_full_coverage(self, result):
        assert result.fault_coverage == 1.0
        assert not result.untestable

    def test_pass_rows_are_cumulative(self, result):
        det = [p.detected for p in result.passes]
        vec = [p.vectors for p in result.passes]
        assert det == sorted(det)
        assert vec == sorted(vec)

    def test_test_set_achieves_reported_coverage(self, result):
        """The returned vectors must reproduce the claimed detections."""
        report = evaluate_test_set(s27(), result.test_set,
                                   collapse_faults(s27()))
        assert set(report.detected) == set(result.detected)

    def test_reported_counts_consistent(self, result):
        last = result.passes[-1]
        assert last.detected == len(result.detected)
        assert last.vectors == len(result.test_set)
        assert last.untestable == len(result.untestable)

    def test_ga_justification_used(self, result):
        assert any(p.ga_justified > 0 for p in result.passes[:2])


class TestHitecBaselineOnS27:
    @pytest.fixture(scope="class")
    def result(self):
        return hitec_baseline(s27(), seed=1).run(quick_det_schedule())

    def test_full_coverage(self, result):
        assert result.fault_coverage == 1.0

    def test_generator_name(self, result):
        assert result.generator == "HITEC"

    def test_no_ga_used(self, result):
        assert all(p.ga_justified == 0 for p in result.passes)


class TestDriverMechanics:
    def test_reproducible_with_seed(self):
        a = gahitec(s27(), seed=5).run(quick_ga_schedule())
        b = gahitec(s27(), seed=5).run(quick_ga_schedule())
        assert a.test_set == b.test_set
        assert set(a.detected) == set(b.detected)

    def test_untestable_faults_identified_and_removed(self):
        circuit = redundant_and()
        drv = hitec_baseline(circuit, seed=0)
        result = drv.run(quick_det_schedule())
        # the driver works on collapsed representatives: check the class
        from repro.faults.collapse import equivalence_classes
        rep = equivalence_classes(circuit)[REDUNDANT_FAULT]
        assert rep in result.untestable
        # untestable + detected covers the whole collapsed list
        assert len(result.detected) + len(result.untestable) == result.total_faults

    def test_explicit_fault_list(self):
        circuit = two_stage_pipeline()
        faults = collapse_faults(circuit)[:2]
        drv = gahitec(circuit, seed=0, faults=faults)
        result = drv.run(quick_ga_schedule(x=4))
        assert result.total_faults == 2

    def test_incidental_detection_drops_faults(self):
        """One sequence typically detects more than its target fault."""
        drv = gahitec(s27(), seed=1)
        result = drv.run(quick_ga_schedule())
        targeted_detections = sum(p.targeted for p in result.passes)
        # far fewer targets than faults: the rest dropped via fault sim
        assert targeted_detections < result.total_faults

    def test_vectors_have_no_dont_cares(self):
        result = gahitec(s27(), seed=2).run(quick_ga_schedule())
        for vec in result.test_set:
            assert all(v in (0, 1) for v in vec)
            assert len(vec) == 4  # s27 has 4 PIs

    def test_summary_renders(self):
        result = gahitec(s27(), seed=1).run(quick_ga_schedule())
        text = result.summary()
        assert "s27" in text and "GA-HITEC" in text
        assert "pass 1" in text

    def test_cpu_time_counts_only_its_own_thread(self):
        # the service runs concurrent jobs in threads of one process: two
        # drivers running side by side must not count each other's work
        start = threading.Barrier(2)
        own, reported = {}, {}

        def run(key):
            driver = hitec_baseline(iscas89("s298"), seed=1)
            schedule = hitec_schedule(num_passes=1, backtrack_base=1,
                                      justify_depth=3, time_scale=None)
            start.wait(timeout=60)
            cpu0 = time.thread_time()
            result = driver.run(schedule)
            own[key] = time.thread_time() - cpu0
            reported[key] = result.report.cpu_time_s

        threads = [threading.Thread(target=run, args=(k,)) for k in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
            assert not thread.is_alive()
        assert sorted(own) == [0, 1]
        for key in own:
            assert 0.0 < reported[key] <= 1.5 * own[key], (reported, own)
