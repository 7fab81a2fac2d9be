"""CLI surface: train-policy, --policy flags, --dispositions export."""

import json

import pytest

from repro.cli import main

from .test_model import MALFORMED, malformed_doc, shrink_ga_doc


def make_report(tmp_path, name="rep.json", seed=3):
    path = str(tmp_path / name)
    assert main([
        "atpg", "s27", "--telemetry", path,
        "--time-scale", "0.05", "--seed", str(seed),
    ]) == 0
    return path


class TestTrainPolicy:
    def test_trains_and_writes_artifact(self, tmp_path, capsys):
        report = make_report(tmp_path)
        out = str(tmp_path / "policy.json")
        assert main(["train-policy", report, "-o", out]) == 0
        text = capsys.readouterr().out
        assert "dataset:" in text and "fit:" in text
        doc = json.load(open(out))
        assert doc["schema"] == "repro-policy/v2"
        assert doc["circuits"] == ["s27"]

    def test_missing_report_exits_2(self, tmp_path, capsys):
        out = str(tmp_path / "policy.json")
        code = main([
            "train-policy", str(tmp_path / "gone.json"), "-o", out,
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestApplyPolicy:
    def test_atpg_with_policy(self, tmp_path, capsys):
        report = make_report(tmp_path)
        policy = str(tmp_path / "policy.json")
        assert main(["train-policy", report, "-o", policy]) == 0
        capsys.readouterr()
        assert main([
            "atpg", "s27", "--policy", policy,
            "--time-scale", "0.05", "--seed", "3",
        ]) == 0
        assert "coverage" in capsys.readouterr().out

    def test_atpg_with_bad_policy_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        code = main([
            "atpg", "s27", "--policy", str(bad),
            "--time-scale", "0.05",
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_atpg_with_shrink_ga_policy_exits_2(self, tmp_path, capsys):
        """A shrink_ga artifact is a v1 artifact: retrain it."""
        bad = tmp_path / "shrink.json"
        bad.write_text(json.dumps(shrink_ga_doc()))
        assert main(["atpg", "s27", "--policy", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            "error: invalid policy artifact: repro-policy/v1 is no longer read"
        )
        assert "retrain" in err and err.count("\n") == 1

    @pytest.mark.parametrize(
        "edit", [edit for _, edit in MALFORMED],
        ids=[name for name, _ in MALFORMED],
    )
    def test_atpg_with_malformed_policy_exits_2(self, tmp_path, capsys, edit):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(malformed_doc(edit)))
        assert main(["atpg", "s27", "--policy", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid policy artifact")
        assert err.count("\n") == 1

    def test_campaign_run_with_policy(self, tmp_path, capsys):
        report = make_report(tmp_path)
        policy = str(tmp_path / "policy.json")
        assert main(["train-policy", report, "-o", policy]) == 0
        journal = str(tmp_path / "c.jsonl")
        assert main([
            "campaign", "run", "s27", "--journal", journal,
            "--policy", policy, "--seed", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "coverage" in out
        # the journal's spec records the policy file
        header = json.loads(open(journal).readline())
        assert header["spec"]["policy_file"] == policy


class TestDispositions:
    def test_export_jsonl(self, tmp_path, capsys):
        report = make_report(tmp_path)
        out = str(tmp_path / "disp.jsonl")
        assert main(["report", report, "--dispositions", out]) == 0
        assert "dispositions" in capsys.readouterr().out
        rows = [json.loads(line) for line in open(out)]
        assert rows and all("fault" in row for row in rows)
        assert all(
            isinstance(row.get("features"), dict) for row in rows
        )
        assert {"status", "pass_number", "backtracks"} <= set(rows[0])
