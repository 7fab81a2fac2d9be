"""Driver integration: plans steer the schedule without losing coverage."""

from repro.circuits import s27
from repro.hybrid.driver import gahitec
from repro.hybrid.passes import gahitec_schedule
from repro.policy.dataset import dataset_from_reports
from repro.policy.model import train_policy
from repro.policy.schedule import PolicyPlan
from repro.telemetry import TelemetryRecorder


def run_static(seed=3, telemetry=None):
    driver = gahitec(s27(), seed=seed, telemetry=telemetry)
    schedule = gahitec_schedule(x=8, num_passes=3, time_scale=None)
    return driver, driver.run(schedule)


def trained_policy():
    _, result = run_static()
    return train_policy(dataset_from_reports([result.report]))


class TestRecordedFeatures:
    def test_every_disposition_carries_features(self):
        _, result = run_static()
        assert result.report.faults
        for record in result.report.faults:
            assert record.features is not None
            assert record.features["cc0"] >= 1.0

    def test_knowledge_hits_recorded(self):
        _, result = run_static()
        total = sum(r.knowledge_hits for r in result.report.faults)
        stats = result.knowledge_stats
        assert total == (
            stats.get("justified_hits", 0)
            + stats.get("unjustifiable_hits", 0)
            + stats.get("podem_pruned", 0)
        )

    def test_report_roundtrips_with_features(self):
        _, result = run_static()
        from repro.telemetry import RunReport

        clone = RunReport.from_dict(result.report.to_dict())
        assert clone.faults[0].features == result.report.faults[0].features


class TestPolicyDriver:
    def test_policy_keeps_coverage(self):
        policy = trained_policy()
        _, static = run_static(seed=3)
        driver = gahitec(s27(), seed=3, policy=policy)
        schedule = gahitec_schedule(x=8, num_passes=3, time_scale=None)
        steered = driver.run(schedule)
        assert set(steered.detected) == set(static.detected)
        assert sorted(str(f) for f in steered.untestable) == sorted(
            str(f) for f in static.untestable
        )

    def test_foreign_policy_is_inert(self):
        policy = trained_policy()
        policy.circuits = ("s298",)  # simulate a family mismatch
        telemetry = TelemetryRecorder()
        driver = gahitec(s27(), seed=3, policy=policy,
                         telemetry=telemetry)
        schedule = gahitec_schedule(x=8, num_passes=3, time_scale=None)
        result = driver.run(schedule)
        _, static = run_static(seed=3)
        assert set(result.detected) == set(static.detected)
        assert telemetry.value("atpg.policy.pass_skips") == 0

    def test_telemetry_counters_emitted(self):
        policy = trained_policy()
        telemetry = TelemetryRecorder()
        driver = gahitec(s27(), seed=3, policy=policy,
                         telemetry=telemetry)
        schedule = gahitec_schedule(x=8, num_passes=3, time_scale=None)
        driver.run(schedule)
        # the policy trained on this run's report starts a fault late
        assert telemetry.value("atpg.policy.pass_skips") > 0
        assert [
            name for name in telemetry.registry.counters
            if name.startswith("atpg.policy.")
        ] == ["atpg.policy.pass_skips"]

    def test_precomputed_plan_accepted(self):
        policy = trained_policy()
        from repro.policy.schedule import build_plan

        driver = gahitec(s27(), seed=3)
        plan = build_plan(policy, driver.cc, driver.all_faults, final_pass=3)
        steered = gahitec(s27(), seed=3, policy=plan)
        schedule = gahitec_schedule(x=8, num_passes=3, time_scale=None)
        result = steered.run(schedule)
        _, static = run_static(seed=3)
        assert set(result.detected) == set(static.detected)

    def test_mismatched_plan_circuit_ignored(self):
        plan = PolicyPlan("s298", 3, {})
        driver = gahitec(s27(), seed=3, policy=plan)
        schedule = gahitec_schedule(x=8, num_passes=3, time_scale=None)
        result = driver.run(schedule)
        _, static = run_static(seed=3)
        assert set(result.detected) == set(static.detected)


class TestMopUpSafety:
    def test_defer_everything_still_reaches_static_coverage(self):
        """Adversarial plan: every fault starts at the final pass."""
        driver = gahitec(s27(), seed=3)
        plan = PolicyPlan("s27", 3, {str(f): 3 for f in driver.all_faults})
        telemetry = TelemetryRecorder()
        steered = gahitec(s27(), seed=3, policy=plan,
                          telemetry=telemetry)
        schedule = gahitec_schedule(x=8, num_passes=3, time_scale=None)
        result = steered.run(schedule)
        # GA-only detections may be lost, so the invariant checked here
        # is that the final pass targets every fault.  Nothing is
        # targeted before pass 3, so nothing is detected before it and
        # each fault is skipped by both earlier passes.
        assert telemetry.value("atpg.policy.pass_skips") == 2 * len(
            driver.all_faults
        )
        targeted = {
            r.fault for r in result.report.faults if r.targeted > 0
        }
        resolved = {
            r.fault
            for r in result.report.faults
            if r.status in ("detected", "untestable")
            and r.pass_number == 0
        }
        # every fault either got targeted in the final pass or was
        # resolved incidentally in it
        for record in result.report.faults:
            assert record.fault in targeted or record.status in (
                "detected", "untestable",
            ), record
        assert resolved | targeted  # non-empty run
