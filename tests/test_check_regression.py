"""Tests for the campaign scaling gate in ``benchmarks/check_regression.py``."""

import json
import os

from benchmarks.check_regression import compare_campaign

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def campaign(cores, real_speedup):
    """A minimal BENCH_campaign.json document (no service section)."""
    return {
        "cores": cores,
        "speedup_workers4": 3.0,
        "real_atpg": {"speedup": {"4": real_speedup}},
    }


def warnings(out):
    return [line for line in out.splitlines() if line.startswith("::warning::")]


class TestRealAtpgFloor:
    def test_small_host_reports_unmeasured_with_a_warning(self, capsys):
        assert compare_campaign(campaign(1, 1.02), None, 2.0, 2.5) == 0
        out = capsys.readouterr().out
        assert "UNMEASURED" in out and "SKIP" not in out
        [warning] = warnings(out)
        assert "recorded on 1 core" in warning

    def test_four_core_host_gates_the_floor(self, capsys):
        assert compare_campaign(campaign(4, 1.5), None, 2.0, 2.5) == 1
        out = capsys.readouterr().out
        assert "FAIL: real-ATPG speedup 1.50x" in out
        assert not warnings(out) and "UNMEASURED" not in out
        assert compare_campaign(campaign(4, 3.0), None, 2.0, 2.5) == 0

    def test_committed_file_passes_loudly(self, capsys):
        with open(os.path.join(ROOT, "BENCH_campaign.json")) as handle:
            committed = json.load(handle)
        assert compare_campaign(committed, None, 2.0, 2.5) == 0
        assert warnings(capsys.readouterr().out)
