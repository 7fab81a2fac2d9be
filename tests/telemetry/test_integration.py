"""End-to-end telemetry: a full s27 campaign yields a schema-valid report."""

import json

import pytest

from repro.circuits import s27
from repro.cli import main
from repro.hybrid.driver import gahitec
from repro.hybrid.passes import gahitec_schedule
from repro.telemetry import RunReport, TelemetryRecorder, validate_report


@pytest.fixture(scope="module")
def campaign():
    recorder = TelemetryRecorder(trace=True)
    driver = gahitec(s27(), seed=1, telemetry=recorder)
    result = driver.run(gahitec_schedule(x=4, time_scale=None))
    return driver, result, recorder


class TestS27Campaign:
    def test_report_is_schema_valid(self, campaign):
        _, result, _ = campaign
        assert result.report is not None
        assert validate_report(result.report.to_dict()) == []

    def test_report_round_trips(self, campaign):
        _, result, _ = campaign
        clone = RunReport.from_dict(json.loads(result.report.to_json()))
        assert clone == result.report

    def test_dispositions_sum_to_fault_list_size(self, campaign):
        _, result, _ = campaign
        report = result.report
        by_status = {}
        for record in report.faults:
            by_status[record.status] = by_status.get(record.status, 0) + 1
        # Every targetable fault ends in exactly one terminal disposition.
        targetable = (
            by_status.get("detected", 0)
            + by_status.get("untestable", 0)
            + by_status.get("aborted", 0)
        )
        assert targetable == report.total_faults == len(report.faults)

    def test_totals_match_run_result(self, campaign):
        _, result, _ = campaign
        report = result.report
        assert report.detected == len(result.detected)
        assert report.untestable == len(result.untestable)
        assert report.vectors == len(result.test_set)
        assert report.fault_coverage == result.fault_coverage

    def test_per_pass_new_counts_sum_to_totals(self, campaign):
        _, result, _ = campaign
        report = result.report
        assert sum(p.detected_new for p in report.passes) == report.detected
        assert sum(p.untestable_new for p in report.passes) == report.untestable
        assert all(p.time_s >= 0.0 for p in report.passes)

    def test_wall_and_cpu_time_recorded(self, campaign):
        _, result, _ = campaign
        report = result.report
        assert report.wall_time_s > 0.0
        assert report.cpu_time_s > 0.0
        assert report.wall_time_s >= report.passes[-1].time_s

    def test_metrics_snapshot_captured(self, campaign):
        _, result, _ = campaign
        counters = result.report.metrics["counters"]
        assert counters["hybrid.pass.calls"] == len(result.report.passes)
        assert counters["hybrid.commits"] <= counters["hybrid.validations"]
        assert counters["sim.frames"] > 0
        assert counters["atpg.faults_targeted"] > 0

    def test_trace_events_nested_and_named(self, campaign):
        _, _, recorder = campaign
        names = {event["name"] for event in recorder.trace_events}
        assert "hybrid.pass" in names
        assert "hybrid.validate" in names
        assert recorder.depth == 0

    def test_detected_faults_have_resolving_pass(self, campaign):
        _, result, _ = campaign
        for record in result.report.faults:
            if record.status == "detected":
                assert record.pass_number >= 1
                assert record.targeted >= 1 or record.incidental

    def test_seed_and_backend_recorded(self, campaign):
        driver, result, _ = campaign
        report = result.report
        assert report.seed == 1
        # the grading simulator: GA fitness runs codegen, unrecorded
        assert report.backend == driver.fault_sim.backend == "event"
        assert report.generator == "GA-HITEC"
        assert report.circuit == "s27"


class TestDisabledTelemetry:
    def test_report_still_produced_without_recorder(self):
        result = gahitec(s27(), seed=1).run(
            gahitec_schedule(x=4, time_scale=None)
        )
        report = result.report
        assert validate_report(report.to_dict()) == []
        assert report.metrics == {}

    def test_ga_generations_counted_without_recorder(self):
        """Each record counts the generations its targetings evolved,
        from the GA's own results, whether or not a recorder listens."""
        schedule = gahitec_schedule(4, time_scale=None, backtrack_base=20)
        plain = gahitec(s27(), seed=0).run(schedule)
        recorder = TelemetryRecorder()
        traced = gahitec(s27(), seed=0, telemetry=recorder).run(schedule)
        assert plain.test_set == traced.test_set

        def generations(result):
            return {r.fault: r.ga_generations for r in result.report.faults}

        assert generations(plain) == generations(traced)
        total = sum(generations(plain).values())
        assert total == recorder.value("ga.generations") > 0

    def test_same_campaign_with_and_without_telemetry(self):
        plain = gahitec(s27(), seed=7).run(gahitec_schedule(x=4, time_scale=None))
        traced = gahitec(s27(), seed=7, telemetry=TelemetryRecorder()).run(
            gahitec_schedule(x=4, time_scale=None)
        )
        # Telemetry must never perturb the search itself.
        assert plain.test_set == traced.test_set
        assert plain.report.detected == traced.report.detected


class TestCliTelemetry:
    def test_run_hybrid_alias_writes_report_and_trace(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        trace_path = tmp_path / "trace.jsonl"
        code = main(
            [
                "run-hybrid",
                "s27",
                "--seq-len",
                "4",
                "--telemetry",
                str(report_path),
                "--trace",
                str(trace_path),
            ]
        )
        assert code == 0
        data = json.loads(report_path.read_text())
        assert validate_report(data) == []
        assert trace_path.read_text().strip()

    def test_report_subcommand_summarises_and_diffs(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        code = main(
            ["atpg", "s27", "--seq-len", "4", "--telemetry", str(path)]
        )
        assert code == 0
        capsys.readouterr()
        assert main(["report", str(path)]) == 0
        summary = capsys.readouterr().out
        assert "s27" in summary
        assert main(["report", str(path), str(path)]) == 0
        diff = capsys.readouterr().out
        assert "delta" in diff
