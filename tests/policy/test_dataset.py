"""Mining run reports into labeled training datasets."""

import pytest

from repro.faults.collapse import collapse_faults
from repro.faults.model import Fault
from repro.policy.dataset import (
    dataset_from_reports,
    parse_fault,
)
from repro.policy.features import FEATURE_NAMES
from repro.telemetry.report import FaultRecord, RunReport


def report_with(faults, circuit="s27"):
    return RunReport(
        circuit=circuit,
        generator="GA-HITEC",
        seed=0,
        total_faults=len(faults),
        detected=sum(1 for f in faults if f.status == "detected"),
        untestable=0,
        fault_coverage=0.0,
        vectors=0,
        faults=faults,
    )


def embedded_record(name, status="detected", **kwargs):
    features = {key: 1.0 for key in FEATURE_NAMES}
    return FaultRecord(
        fault=name, status=status, features=features, **kwargs
    )


class TestParseFault:
    def test_stem_fault_roundtrip(self):
        fault = Fault(net="G17", stuck=1)
        assert parse_fault(str(fault)) == fault

    def test_branch_fault_roundtrip(self):
        fault = Fault(net="G5", stuck=0, gate="G10", pin=1)
        assert parse_fault(str(fault)) == fault

    def test_every_s27_fault_roundtrips(self):
        from repro.circuits import s27

        for fault in collapse_faults(s27()):
            assert parse_fault(str(fault)) == fault

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            parse_fault("not a fault")


class TestMining:
    def test_embedded_features_used_directly(self):
        record = embedded_record(
            "G1 s-a-0", pass_number=2, backtracks=3, ga_generations=4
        )
        dataset = dataset_from_reports([report_with([record])])
        assert len(dataset.rows) == 1 and dataset.skipped == 0
        row = dataset.rows[0]
        assert row.circuit == "s27" and row.fault == "G1 s-a-0"
        assert row.status == "detected"
        assert row.resolve_pass == 2.0

    def test_prefixed_fault_names_stripped(self):
        record = embedded_record("s298:G1 s-a-0")
        dataset = dataset_from_reports(
            [report_with([record], circuit="merged")]
        )
        row = dataset.rows[0]
        assert row.circuit == "s298" and row.fault == "G1 s-a-0"

    def test_backfill_recomputes_missing_features(self):
        fault = collapse_faults(__import__(
            "repro.circuits", fromlist=["s27"]).s27())[0]
        record = FaultRecord(fault=str(fault), status="detected")
        dataset = dataset_from_reports([report_with([record])])
        assert len(dataset.rows) == 1
        # model-conditional features (is_transition) are omitted for
        # stuck-at faults and read 0.0; everything else is recomputed
        features = set(dataset.rows[0].features)
        assert features <= set(FEATURE_NAMES)
        assert set(FEATURE_NAMES) - features <= {"is_transition"}

    def test_unresolvable_circuit_counted_not_fatal(self):
        record = FaultRecord(fault="G1 s-a-0", status="detected")
        dataset = dataset_from_reports(
            [report_with([record], circuit="no-such-circuit")]
        )
        assert not dataset.rows and dataset.skipped == 1

    def test_never_targeted_rows_label_pass_one(self):
        record = embedded_record("G1 s-a-0", pass_number=0)
        dataset = dataset_from_reports([report_with([record])])
        assert dataset.rows[0].resolve_pass == 1.0

    def test_loads_report_paths(self, tmp_path):
        path = str(tmp_path / "report.json")
        report_with([embedded_record("G1 s-a-0")]).save(path)
        dataset = dataset_from_reports([path])
        assert len(dataset.rows) == 1 and dataset.reports == 1

    def test_summary_mentions_rows_and_circuits(self):
        dataset = dataset_from_reports(
            [report_with([embedded_record("G1 s-a-0")])]
        )
        text = dataset.summary()
        assert "1 rows" in text and "s27" in text
