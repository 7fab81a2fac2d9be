"""Section IV-A ablation: bitwise word parallelism in the simulator.

The paper packs 32 candidate sequences into the bits of one machine word;
Python integers make the width a free parameter.  This benchmark measures
fault-simulation throughput (gate-pattern evaluations per second) as the
word width grows, confirming the design choice the paper inherits from
PROOFS: wider words amortise the per-gate interpretation cost across
patterns.

Each width is measured under both simulation backends — the event-driven
interpreter and the generated straight-line kernels — and the comparison
is written both as a rendered table (``benchmarks/out/``) and as
machine-readable ``BENCH_simulation.json`` at the repository root.

Two further metrics cover compilation cost:

* the *grading* workload — several fault batches of **distinct** shapes
  graded cold (fresh process state), the regime of
  ``GradedTestSet`` and campaign merge, where codegen must
  exec-compile a kernel per shape;
* the *cold vs warm* kernel-cache comparison — with a persistent cache
  directory, a warm process must report **zero** compilations.

A transition-model row repeats the grading workload under the
transition fault model (same batch shapes): its codegen cost over the
stuck-at row measures what the launch/capture injection planes add,
gated by ``check_regression.py --max-transition-overhead``.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from repro.circuits import iscas89
from repro.faults.collapse import collapse_faults
from repro.simulation import kernel_cache
from repro.simulation.codegen import compile_stats
from repro.simulation.compiled import compile_circuit
from repro.simulation.fault_sim import FaultSimulator

from .conftest import write_artifact

WIDTHS = [1, 8, 32, 64, 256, 1024]
BACKENDS = ["event", "codegen"]

CIRCUIT = "s298"
N_VECTORS = 64

#: Distinct-shape grading workload: fault-batch sizes and frames per
#: block.  Each batch has a different injection signature, so the
#: codegen backend compiles a fresh kernel per batch.
GRADE_SIZES = [246, 243, 123, 37]
GRADE_FRAMES = 16
GRADE_WIDTH = 256

_rows = {}
_grade = {}
_tgrade = {}


def _maybe_render():
    if (
        len(_rows) == len(WIDTHS) * len(BACKENDS)
        and len(_grade) == len(BACKENDS)
        and len(_tgrade) == len(BACKENDS)
    ):
        _render()


def _workload():
    circuit = iscas89(CIRCUIT)
    faults = collapse_faults(circuit)
    rng = random.Random(5)
    vectors = [
        [rng.getrandbits(1) for _ in circuit.inputs] for _ in range(N_VECTORS)
    ]
    return circuit, faults, vectors


@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("backend", BACKENDS)
def test_fault_sim_width(benchmark, backend, width):
    circuit, faults, vectors = _workload()
    sim = FaultSimulator(circuit, width=width, backend=backend)

    def run():
        return sim.run(vectors, faults, stop_on_all_detected=False)

    # one warmup round so the codegen backend's per-shape kernel cache is
    # populated — steady state is what both backends run at in the driver
    benchmark.pedantic(run, iterations=1, rounds=3, warmup_rounds=1)
    _rows[(backend, width)] = benchmark.stats.stats.mean

    # detection results must be width- and backend-independent
    baseline = FaultSimulator(circuit, width=1).run(
        vectors[:8], faults[:20], stop_on_all_detected=False
    )
    wide = FaultSimulator(circuit, width=width, backend=backend).run(
        vectors[:8], faults[:20], stop_on_all_detected=False
    )
    assert set(baseline.detected) == set(wide.detected)
    _maybe_render()


def _grade_workload(fault_model="stuck_at"):
    circuit = iscas89(CIRCUIT)
    faults = collapse_faults(circuit, fault_model)
    rng = random.Random(5)
    sizes = [min(n, len(faults)) for n in GRADE_SIZES]
    blocks = [
        [[rng.getrandbits(1) for _ in circuit.inputs]
         for _ in range(GRADE_FRAMES)]
        for _ in sizes
    ]
    batches = [faults[:n] for n in sizes]
    return blocks, batches


@pytest.mark.parametrize("backend", BACKENDS)
def test_fault_sim_grading(benchmark, backend):
    """Cold distinct-shape grading: the campaign-merge regime."""
    blocks, batches = _grade_workload()

    def run():
        # a fresh compiled circuit per round reproduces per-process cold
        # state: codegen recompiles every batch shape
        cc = compile_circuit(iscas89(CIRCUIT))
        sim = FaultSimulator(cc, width=GRADE_WIDTH, backend=backend)
        for block, batch in zip(blocks, batches):
            sim.run(block, batch, stop_on_all_detected=False)

    benchmark.pedantic(run, iterations=1, rounds=7, warmup_rounds=1)
    _grade[backend] = benchmark.stats.stats.mean
    _maybe_render()


@pytest.mark.parametrize("backend", BACKENDS)
def test_fault_sim_grading_transition(benchmark, backend):
    """Distinct-shape grading under the transition fault model.

    Same batch sizes as the stuck-at workload, so the codegen overhead
    ratio isolates what the launch/capture injection planes cost (the
    extra previous-frame combine per faulty site).
    """
    blocks, batches = _grade_workload("transition")

    def run():
        cc = compile_circuit(iscas89(CIRCUIT))
        sim = FaultSimulator(cc, width=GRADE_WIDTH, backend=backend)
        for block, batch in zip(blocks, batches):
            sim.run(block, batch, stop_on_all_detected=False)

    benchmark.pedantic(run, iterations=1, rounds=7, warmup_rounds=1)
    _tgrade[backend] = benchmark.stats.stats.mean
    _maybe_render()


def _measure_cache_warmup(tmp_dir):
    """(cold compiles, warm compiles) with a persistent kernel cache."""

    def one_pass():
        compiles0 = compile_stats()["kernels"]
        blocks, batches = _grade_workload()
        cc = compile_circuit(iscas89(CIRCUIT))
        sim = FaultSimulator(cc, width=GRADE_WIDTH, backend="codegen")
        sim.run(blocks[0], batches[0], stop_on_all_detected=False)
        return int(compile_stats()["kernels"] - compiles0)

    kernel_cache.configure(str(tmp_dir))
    try:
        cold = one_pass()
        warm = one_pass()  # fresh compiled circuits, populated cache
    finally:
        kernel_cache.configure(None)
    return cold, warm


def _render():
    import tempfile

    circuit, faults, vectors = _workload()
    base = _rows[("event", 1)]
    lines = [f"Fault-simulation word-width ablation — {CIRCUIT} stand-in:"]
    for backend in BACKENDS:
        lines.append(f"  backend={backend}:")
        for width in WIDTHS:
            seconds = _rows[(backend, width)]
            speedup = base / seconds if seconds else float("inf")
            lines.append(
                f"    width {width:>4d}: {seconds * 1e3:8.1f} ms per pass "
                f"({speedup:5.2f}x vs event width 1)"
            )
    wide_speedup = base / _rows[("event", max(WIDTHS))]
    verdict = "PASS" if wide_speedup > 2.0 else "FAIL"
    lines.append(
        f"  [{verdict}] wide words give substantial speedup "
        "(the PROOFS design choice the paper builds on)"
    )
    codegen_speedup = _rows[("event", 64)] / _rows[("codegen", 64)]
    verdict = "PASS" if codegen_speedup >= 3.0 else "FAIL"
    lines.append(
        f"  [{verdict}] codegen kernels are {codegen_speedup:.2f}x faster "
        "than the event backend at width 64 (target: 3x)"
    )

    lines.append(
        f"  distinct-shape grading ({len(GRADE_SIZES)} cold batches, "
        f"width {GRADE_WIDTH}):"
    )
    for backend in BACKENDS:
        lines.append(
            f"    {backend:>8s}: {_grade[backend] * 1e3:8.1f} ms"
        )
    lines.append(
        f"  transition-model grading (same {len(GRADE_SIZES)} batch "
        f"shapes, width {GRADE_WIDTH}):"
    )
    for backend in BACKENDS:
        lines.append(
            f"    {backend:>8s}: {_tgrade[backend] * 1e3:8.1f} ms"
        )
    transition_overhead = _tgrade["codegen"] / _grade["codegen"]
    verdict = "PASS" if transition_overhead <= 3.0 else "FAIL"
    lines.append(
        f"  [{verdict}] transition grading costs "
        f"{transition_overhead:.2f}x stuck-at on codegen (ceiling: 3x)"
    )

    with tempfile.TemporaryDirectory() as tmp_dir:
        cold_compiles, warm_compiles = _measure_cache_warmup(tmp_dir)
    verdict = "PASS" if cold_compiles > 0 and warm_compiles == 0 else "FAIL"
    lines.append(
        f"  [{verdict}] persistent kernel cache: {cold_compiles} cold "
        f"compiles, {warm_compiles} warm (target: 0 warm)"
    )

    text = "\n".join(lines)
    print("\n" + text)
    write_artifact("ablation_parallelism.txt", text)

    payload = {
        "circuit": CIRCUIT,
        "frames": N_VECTORS,
        "faults": len(faults),
        "widths": WIDTHS,
        "backends": BACKENDS,
        "seconds": {
            backend: {str(w): _rows[(backend, w)] for w in WIDTHS}
            for backend in BACKENDS
        },
        "codegen_speedup_width64": codegen_speedup,
        "grade_seconds": {b: _grade[b] for b in BACKENDS},
        "grade_width": GRADE_WIDTH,
        "grade_batches": len(GRADE_SIZES),
        "kernel_compiles_cold": cold_compiles,
        "kernel_compiles_warm": warm_compiles,
        "transition_grade_seconds": {b: _tgrade[b] for b in BACKENDS},
        "transition_grade_overhead_codegen": transition_overhead,
    }
    Path(__file__).parent.parent.joinpath("BENCH_simulation.json").write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )
