"""CLI coverage for `repro campaign ...` and `repro report --json`."""

import json

import pytest

from repro.cli import main
from repro.simulation import kernel_cache


def run_small_campaign(tmp_path, capsys, extra=()):
    journal = str(tmp_path / "j.jsonl")
    code = main([
        "campaign", "run", "s27",
        "--name", "cli", "--seed", "1", "--shard-size", "8", "--passes", "2",
        "--journal", journal, *extra,
    ])
    out = capsys.readouterr().out
    return code, journal, out


class TestCampaignRun:
    def test_inline_run_prints_summary(self, tmp_path, capsys):
        code, _, out = run_small_campaign(tmp_path, capsys)
        assert code == 0
        assert "campaign cli" in out and "coverage" in out

    def test_writes_report_and_vectors(self, tmp_path, capsys):
        report = str(tmp_path / "report.json")
        out_dir = str(tmp_path / "vectors")
        code, _, out = run_small_campaign(
            tmp_path, capsys,
            extra=["--report", report, "--output-dir", out_dir],
        )
        assert code == 0
        data = json.load(open(report))
        assert data["circuit"] == "campaign:cli"
        vectors = open(f"{out_dir}/s27.vec").read().strip().splitlines()
        assert vectors and all(len(line) == 4 for line in vectors)

    def test_spec_file_and_inline_circuits_conflict(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "schema": "repro-campaign-spec/v1", "circuits": ["s27"],
        }))
        with pytest.raises(SystemExit, match="not both"):
            main(["campaign", "run", "s27", "--spec", str(spec),
                  "--journal", str(tmp_path / "j.jsonl")])

    def test_run_without_circuits_rejected(self, tmp_path):
        with pytest.raises(SystemExit, match="circuits"):
            main(["campaign", "run",
                  "--journal", str(tmp_path / "j.jsonl")])


class TestCampaignStatusAndResume:
    def test_status_text_and_json(self, tmp_path, capsys):
        _, journal, _ = run_small_campaign(tmp_path, capsys)
        assert main(["campaign", "status", "--journal", journal]) == 0
        out = capsys.readouterr().out
        assert "items done" in out and "merged" in out
        assert main(["campaign", "status", "--journal", journal,
                     "--json"]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["done"] == status["items"]

    def test_resume_completed_campaign_is_idempotent(
        self, tmp_path, capsys
    ):
        _, journal, first = run_small_campaign(tmp_path, capsys)
        assert main(["campaign", "resume", "--journal", journal]) == 0
        second = capsys.readouterr().out
        assert "coverage 100.0%" in first
        assert "coverage 100.0%" in second

    def test_resume_takes_kernel_cache(self, tmp_path, capsys, monkeypatch):
        # restored (unset) at teardown, so the directory set here cannot
        # leak into later tests
        monkeypatch.setenv(kernel_cache.ENV_VAR, "")
        _, journal, _ = run_small_campaign(tmp_path, capsys)
        kernels = str(tmp_path / "kernels")
        assert main(["campaign", "resume", "--journal", journal,
                     "--kernel-cache", kernels]) == 0
        assert kernel_cache.cache_dir() == kernels


class TestReportJson:
    def make_report(self, tmp_path, capsys, seed):
        path = str(tmp_path / f"report{seed}.json")
        main(["atpg", "s27", "--passes", "2", "--time-scale", "0.05",
              "--seed", str(seed), "--telemetry", path])
        capsys.readouterr()
        return path

    def test_single_report_json(self, tmp_path, capsys):
        path = self.make_report(tmp_path, capsys, 1)
        assert main(["report", path, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["schema"] == "repro-run-report/v1"
        assert data["circuit"] == "s27"

    def test_diff_json(self, tmp_path, capsys):
        a = self.make_report(tmp_path, capsys, 1)
        b = self.make_report(tmp_path, capsys, 2)
        assert main(["report", a, b, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["schema"] == "repro-report-diff/v1"
        assert "total_faults" in data["fields"]

    def test_diff_json_changed_only_filters(self, tmp_path, capsys):
        a = self.make_report(tmp_path, capsys, 1)
        assert main(["report", a, a, "--json", "--changed-only"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["fields"] == {}
