"""Tests for the extended CLI commands (convert, scan, diagnose, compact)."""

import pytest

from repro.cli import _read_vectors, main, resolve_circuit
from repro.circuit.bench import load_bench
from repro.circuit.verilog import load_verilog
from repro.circuits import s27
from repro.faults.collapse import collapse_faults
from repro.simulation.fault_sim import FaultSimulator


class TestConvert:
    def test_bench_to_verilog(self, tmp_path, capsys):
        out = str(tmp_path / "s27.v")
        assert main(["convert", "s27", out]) == 0
        assert load_verilog(out).gates == s27().gates

    def test_verilog_to_bench(self, tmp_path):
        v = str(tmp_path / "s27.v")
        b = str(tmp_path / "s27.bench")
        main(["convert", "s27", v])
        assert main(["convert", v, b]) == 0
        assert load_bench(b).gates == s27().gates

    def test_resolve_verilog_path(self, tmp_path):
        v = str(tmp_path / "c.v")
        main(["convert", "s27", v])
        assert resolve_circuit(v).num_gates == 10


class TestScanCommand:
    def test_scan_insertion(self, tmp_path, capsys):
        out = str(tmp_path / "s27_scan.bench")
        assert main(["scan", "s27", out]) == 0
        assert "3-bit scan chain" in capsys.readouterr().out
        scanned = load_bench(out)
        assert "scan_enable" in scanned.inputs
        assert "scan_out" in scanned.outputs


class TestCompactFlag:
    def test_atpg_compact(self, tmp_path, capsys):
        out = str(tmp_path / "tests.vec")
        code = main([
            "atpg", "s27", "-o", out, "--compact",
            "--time-scale", "0.05", "--seed", "1",
        ])
        assert code == 0
        assert "compaction:" in capsys.readouterr().out

    def test_compaction_keeps_the_runs_own_coverage(self, tmp_path, capsys):
        # a transition run is compacted against its transition faults, not
        # the stuck-at universe, so the compacted set loses no detection
        run = [
            "atpg", "s27", "--fault-model", "transition", "--baseline",
            "--passes", "1", "--backtracks", "5", "--seed", "7",
            "--time-scale", "1000",
        ]
        full = str(tmp_path / "full.vec")
        compact = str(tmp_path / "compact.vec")
        assert main(run + ["-o", full]) == 0
        assert main(run + ["--compact", "-o", compact]) == 0
        capsys.readouterr()
        circuit = s27()
        faults = collapse_faults(circuit, "transition")

        def detected(path):
            vectors = _read_vectors(path, len(circuit.inputs))
            return len(FaultSimulator(circuit).run(vectors, faults).detected)

        assert detected(compact) >= detected(full) > 0


class TestDiagnoseCommand:
    def test_end_to_end(self, tmp_path, capsys):
        vec = str(tmp_path / "tests.vec")
        main(["atpg", "s27", "-o", vec, "--time-scale", "0.05", "--seed", "1"])
        capsys.readouterr()

        # craft failures from a known fault's signature
        from repro.analysis import FaultDictionary
        from repro.cli import _read_vectors

        circuit = s27()
        vectors = _read_vectors(vec, 4)
        dictionary = FaultDictionary(circuit, vectors)
        fault = dictionary.detected_faults[0]
        failures_file = tmp_path / "failures.txt"
        failures_file.write_text(
            "\n".join(f"{c} {p}" for c, p in sorted(dictionary.signatures[fault]))
        )
        assert main(["diagnose", "s27", vec, str(failures_file)]) == 0
        out = capsys.readouterr().out
        assert "1. [exact]" in out
        assert str(fault) in out
