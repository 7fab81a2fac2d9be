"""Tests for the command-line interface."""

import pytest

from repro.cli import main, resolve_circuit
from repro.circuit.bench import save_bench
from repro.circuits import s27


class TestResolve:
    def test_builtin_iscas(self):
        assert resolve_circuit("s27").name == "s27"

    def test_builtin_synth(self):
        assert resolve_circuit("div").name == "div"

    def test_bench_file(self, tmp_path):
        path = str(tmp_path / "c.bench")
        save_bench(s27(), path)
        assert resolve_circuit(path).num_gates == 10

    def test_missing_file(self):
        with pytest.raises(OSError):
            resolve_circuit("/nope/missing.bench")


class TestCommands:
    def test_stats(self, capsys):
        assert main(["stats", "s27"]) == 0
        out = capsys.readouterr().out
        assert "s27" in out and "collapsed faults" in out

    def test_faults(self, capsys):
        assert main(["faults", "s27"]) == 0
        out = capsys.readouterr().out
        assert "s-a-0" in out and "s-a-1" in out
        assert len(out.strip().splitlines()) == 26

    def test_atpg_writes_vectors(self, tmp_path, capsys):
        out_file = str(tmp_path / "tests.vec")
        code = main([
            "atpg", "s27", "-o", out_file,
            "--time-scale", "0.05", "--backtracks", "100", "--seed", "1",
        ])
        assert code == 0
        lines = open(out_file).read().strip().splitlines()
        assert lines and all(len(l) == 4 for l in lines)
        assert "coverage" in capsys.readouterr().out

    def test_atpg_baseline(self, capsys):
        assert main(["atpg", "s27", "--baseline", "--passes", "2",
                     "--time-scale", "0.05"]) == 0
        assert "HITEC" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["atpg", "s27", "--prefilter"],
        ["train-policy", "r.json", "-o", "p.json", "--shrink-ga"],
        ["train-policy", "r.json", "-o", "p.json", "--rounds=5"],
        ["faultsim", "s27", "t.vec", "--kernel-cache=k"],
    ], ids=["atpg-prefilter", "train-policy-shrink-ga",
            "train-policy-rounds", "faultsim-kernel-cache"])
    def test_removed_flags_are_unrecognized(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"error: unrecognized arguments: {argv[-1]}\n" in (
            capsys.readouterr().err
        )

    def test_faultsim_roundtrip(self, tmp_path, capsys):
        out_file = str(tmp_path / "tests.vec")
        main(["atpg", "s27", "-o", out_file, "--time-scale", "0.05",
              "--seed", "1"])
        capsys.readouterr()
        assert main(["faultsim", "s27", out_file]) == 0
        assert "faults" in capsys.readouterr().out

    def test_faultsim_rejects_bad_width(self, tmp_path):
        vec = tmp_path / "bad.vec"
        vec.write_text("010\n")
        with pytest.raises(SystemExit):
            main(["faultsim", "s27", str(vec)])

    def test_faultsim_lists_undetected(self, tmp_path, capsys):
        vec = tmp_path / "weak.vec"
        vec.write_text("0000\n")
        assert main(["faultsim", "s27", str(vec), "--list-undetected"]) == 0
        assert "undetected:" in capsys.readouterr().out
