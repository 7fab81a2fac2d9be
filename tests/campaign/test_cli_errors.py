"""Campaign/report CLI error paths: one-line stderr, exit 2, no traceback."""

import json

import pytest

from repro.campaign import CampaignSpec
from repro.cli import main

#: A backend name that is no longer registered (it was removed, not
#: aliased), so old specs and journals naming it must fail.
REMOVED = "numpy"


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_clean_failure(code, err):
    assert code == 2
    assert err.startswith("error: ")
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


class TestStatusErrors:
    def test_missing_journal(self, tmp_path, capsys):
        code, _, err = run(capsys, [
            "campaign", "status", "--journal", str(tmp_path / "no.jsonl"),
        ])
        assert_clean_failure(code, err)
        assert "no.jsonl" in err

    def test_corrupt_journal(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text("definitely not json\n")
        code, _, err = run(capsys, [
            "campaign", "status", "--journal", str(path),
        ])
        assert_clean_failure(code, err)
        assert "corrupt" in err

    def test_headerless_journal(self, tmp_path, capsys):
        path = tmp_path / "h.jsonl"
        path.write_text(json.dumps({"type": "item_done"}) + "\n")
        code, _, err = run(capsys, [
            "campaign", "status", "--journal", str(path),
        ])
        assert_clean_failure(code, err)


class TestResumeErrors:
    def test_missing_journal(self, tmp_path, capsys):
        code, _, err = run(capsys, [
            "campaign", "resume", "--journal", str(tmp_path / "no.jsonl"),
        ])
        assert_clean_failure(code, err)

    def test_spec_hash_mismatch(self, tmp_path, capsys):
        journal = str(tmp_path / "j.jsonl")
        assert main([
            "campaign", "run", "s27", "--name", "orig", "--seed", "1",
            "--shard-size", "8", "--passes", "2", "--journal", journal,
        ]) == 0
        capsys.readouterr()
        other = CampaignSpec(circuits=("s27",), name="other", seed=99)
        spec_file = tmp_path / "other.json"
        other.save(str(spec_file))
        code, _, err = run(capsys, [
            "campaign", "resume", "--journal", journal,
            "--spec", str(spec_file),
        ])
        assert_clean_failure(code, err)
        assert "does not match" in err

    def test_matching_spec_resumes_fine(self, tmp_path, capsys):
        spec = CampaignSpec(circuits=("s27",), name="match", seed=2,
                            shard_size=8, passes=2)
        spec_file = tmp_path / "spec.json"
        spec.save(str(spec_file))
        journal = str(tmp_path / "j.jsonl")
        assert main([
            "campaign", "run", "--spec", str(spec_file),
            "--journal", journal,
        ]) == 0
        capsys.readouterr()
        code, out, err = run(capsys, [
            "campaign", "resume", "--journal", journal,
            "--spec", str(spec_file),
        ])
        assert code == 0 and err == ""
        assert "coverage" in out


class TestRunErrors:
    def test_existing_journal_refused_without_traceback(
        self, tmp_path, capsys
    ):
        journal = str(tmp_path / "j.jsonl")
        argv = [
            "campaign", "run", "s27", "--name", "c", "--seed", "1",
            "--shard-size", "8", "--passes", "2", "--journal", journal,
        ]
        assert main(argv) == 0
        capsys.readouterr()
        code, _, err = run(capsys, argv)
        assert_clean_failure(code, err)
        assert "resume" in err

    @pytest.mark.parametrize("flag, value, message", [
        ("--fault-limit", "0", "fault_limit must be at least 1"),
        ("--time-scale", "-1", "time_scale must be positive"),
        ("--item-timeout", "0", "item_timeout_s must be positive"),
        ("--backtracks", "-1", "backtracks must be at least 0"),
        ("--seq-len", "-3", "seq_len must be at least 0"),
    ])
    def test_out_of_range_number(self, tmp_path, capsys, flag, value,
                                 message):
        code, _, err = run(capsys, [
            "campaign", "run", "s27", flag, value,
            "--journal", str(tmp_path / "j.jsonl"),
        ])
        assert_clean_failure(code, err)
        assert message in err
        assert not (tmp_path / "j.jsonl").exists()

    def test_unwritable_journal_path(self, tmp_path, capsys):
        code, _, err = run(capsys, [
            "campaign", "run", "s27",
            "--journal", str(tmp_path / "no-dir" / "j.jsonl"),
        ])
        assert_clean_failure(code, err)


class TestReportErrors:
    def test_missing_report(self, tmp_path, capsys):
        code, _, err = run(capsys, ["report", str(tmp_path / "no.json")])
        assert_clean_failure(code, err)

    def test_invalid_json_report(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{broken")
        code, _, err = run(capsys, ["report", str(path)])
        assert_clean_failure(code, err)

    def test_wrong_schema_report(self, tmp_path, capsys):
        path = tmp_path / "wrong.json"
        path.write_text(json.dumps({"schema": "other/v1"}))
        code, _, err = run(capsys, ["report", str(path)])
        assert_clean_failure(code, err)


class TestBackendErrors:
    """The code picks each job's simulator.  ``--backend`` is an
    unrecognized argument, and a spec or journal header naming any
    backend, even a registered one, fails with one line before any work."""

    @pytest.mark.parametrize("command", [
        ["atpg", "s27"], ["faultsim", "s27", "never-read.vec"],
        ["campaign", "run", "s27", "--journal", "never-written.jsonl"],
    ])
    def test_flag(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main(command + ["--backend", "codegen"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --backend codegen" in err
        assert "Traceback" not in err

    def test_campaign_run_spec(self, tmp_path, capsys):
        for name in (REMOVED, "codegen"):
            spec_file = tmp_path / "spec.json"
            data = CampaignSpec(circuits=("s27",)).to_dict()
            data["backend"] = name
            spec_file.write_text(json.dumps(data))
            code, _, err = run(capsys, [
                "campaign", "run", "--spec", str(spec_file),
                "--journal", str(tmp_path / "j.jsonl"),
            ])
            assert_clean_failure(code, err)
            assert repr(name) in err
            assert not (tmp_path / "j.jsonl").exists()

    def test_campaign_resume_old_journal(self, tmp_path, capsys):
        journal = tmp_path / "j.jsonl"
        assert main([
            "campaign", "run", "s27", "--shard-size", "8", "--passes", "1",
            "--fault-limit", "4", "--journal", str(journal),
        ]) == 0
        capsys.readouterr()
        lines = journal.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["spec"]["backend"] is None
        # rewrite the header as a journal written when a backend could be
        # named: REMOVED, or a simulator that still exists
        for name in (REMOVED, "codegen"):
            header["spec"]["backend"] = name
            lines[0] = json.dumps(header)
            journal.write_text("\n".join(lines) + "\n")
            code, _, err = run(capsys, [
                "campaign", "resume", "--journal", str(journal),
            ])
            assert_clean_failure(code, err)
            assert repr(name) in err


class TestRemovedBroadcast:
    """The live knowledge-broadcast knob was deleted, not aliased: old
    command lines, spec files and journal headers naming it fail with one
    line before any work."""

    def test_flag_is_unrecognized(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main([
                "campaign", "run", "s27", "--broadcast",
                "--journal", str(tmp_path / "j.jsonl"),
            ])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --broadcast" in err
        assert "Traceback" not in err
        assert not (tmp_path / "j.jsonl").exists()

    def test_campaign_run_spec(self, tmp_path, capsys):
        spec_file = tmp_path / "spec.json"
        data = CampaignSpec(circuits=("s27",)).to_dict()
        data["knowledge_broadcast"] = True
        spec_file.write_text(json.dumps(data))
        code, _, err = run(capsys, [
            "campaign", "run", "--spec", str(spec_file),
            "--journal", str(tmp_path / "j.jsonl"),
        ])
        assert_clean_failure(code, err)
        assert "unknown spec keys: knowledge_broadcast" in err
        assert not (tmp_path / "j.jsonl").exists()

    def test_campaign_resume_old_journal(self, tmp_path, capsys):
        journal = tmp_path / "j.jsonl"
        assert main([
            "campaign", "run", "s27", "--shard-size", "8", "--passes", "1",
            "--fault-limit", "4", "--journal", str(journal),
        ]) == 0
        capsys.readouterr()
        # rewrite the header as a journal written with broadcast on
        lines = journal.read_text().splitlines()
        header = json.loads(lines[0])
        header["spec"]["knowledge_broadcast"] = True
        lines[0] = json.dumps(header)
        journal.write_text("\n".join(lines) + "\n")
        code, _, err = run(capsys, [
            "campaign", "resume", "--journal", str(journal),
        ])
        assert_clean_failure(code, err)
        assert "unknown spec keys: knowledge_broadcast" in err
