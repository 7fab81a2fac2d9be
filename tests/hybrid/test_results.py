"""Tests for result records and paper-style formatting."""

from repro.hybrid.results import PassStats, RunResult, format_time


class TestFormatTime:
    def test_seconds(self):
        assert format_time(49.5) == "49.5s"

    def test_minutes(self):
        assert format_time(5.96 * 60) == "5.96m"

    def test_hours(self):
        assert format_time(2.39 * 3600) == "2.39h"

    def test_boundaries(self):
        assert format_time(59.9).endswith("s")
        assert format_time(60.0).endswith("m")
        assert format_time(3600.0).endswith("h")


class TestPassStats:
    def test_row_contains_all_columns(self):
        row = PassStats(1, "ga", detected=255, vectors=216,
                        time_s=49.5, untestable=0).row()
        assert "255" in row and "216" in row and "49.5s" in row

class TestRunResult:
    def _result(self):
        from repro.faults.model import Fault

        r = RunResult("s298", "GA-HITEC", total_faults=308)
        r.passes.append(PassStats(1, "ga", detected=255, vectors=216,
                                  time_s=49.5, untestable=0))
        r.passes.append(PassStats(2, "ga", detected=264, vectors=391,
                                  time_s=5.96 * 60, untestable=0))
        r.detected = {Fault(f"n{i}", 0): 0 for i in range(264)}
        return r

    def test_coverage(self):
        r = self._result()
        assert r.fault_coverage == 264 / 308

    def test_coverage_empty(self):
        assert RunResult("x", "GA-HITEC", 0).fault_coverage == 0.0

    def test_summary_layout(self):
        text = self._result().summary()
        lines = text.splitlines()
        assert lines[0].startswith("s298")
        assert "pass 1" in lines[1] and "pass 2" in lines[2]
        assert "coverage" in lines[-1]
