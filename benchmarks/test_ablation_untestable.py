"""Section VI: where GA-HITEC spends GA work on untestable faults.

The paper: *"GA-HITEC wastes time targeting untestable faults in the
first two passes, a result especially apparent for circuit s386.  If these
untestable faults can be filtered out in advance, significant speedups can
be obtained."*

One fixed-seed, wall-clock-free (``time_scale=None``) run of the
three-pass GA-HITEC schedule on s386, with a telemetry recorder so each
fault's record counts the GA generations spent on it.  Faults are grouped
by the pass that proved them UNTESTABLE.

Gated: every fault proven in the GA passes (1–2) consumed zero GA
generations.  The sequential engine searches for a propagation solution
before it calls any justifier, and a fault with none is proven there, so
the filtering §VI asks for already happens inside those passes.

Reported: the GA generations spent on faults that only the deterministic
pass 3 proves.  That is the waste §VI describes.  Filtering with a
justifier that refuses every state cannot remove it: the GA only runs on
a fault once a propagation solution has asked for a state.

Results land in ``benchmarks/out/ablation_untestable_s386.txt``.
"""

from __future__ import annotations

from repro.circuits import iscas89
from repro.hybrid import gahitec, gahitec_schedule
from repro.telemetry import TelemetryRecorder

from .conftest import BACKTRACK_BASE, write_artifact

CIRCUIT = "s386"
SEED = 1


def test_untestable_faults_cost_no_ga_work_in_the_ga_passes():
    circuit = iscas89(CIRCUIT)
    recorder = TelemetryRecorder()
    result = gahitec(circuit, seed=SEED, telemetry=recorder).run(
        gahitec_schedule(
            x=4 * circuit.sequential_depth or 8,
            num_passes=3,
            time_scale=None,
            backtrack_base=BACKTRACK_BASE,
            justify_depth=3,
        )
    )
    by_pass = {1: [], 2: [], 3: []}
    for record in result.report.faults:
        if record.status == "untestable":
            by_pass[record.pass_number].append(record)
    early = by_pass[1] + by_pass[2]
    wasted = sum(r.ga_generations for r in by_pass[3])
    total = int(recorder.value("ga.generations"))

    assert early, "the GA passes must prove some untestable faults"
    # the records account for every generation, so the gate below
    # cannot pass on records that simply count nothing
    assert sum(r.ga_generations for r in result.report.faults) == total > 0
    assert [r.fault for r in early if r.ga_generations] == []

    lines = [
        f"Untestable faults and GA work — {CIRCUIT}, seed {SEED}, "
        f"backtracks {BACKTRACK_BASE}, justify depth 3, no time limits:",
        f"  {len(result.untestable)} proven untestable of "
        f"{result.total_faults} faults ({len(result.detected)} detected)",
    ]
    for number, records in by_pass.items():
        generations = sum(r.ga_generations for r in records)
        lines.append(
            f"  pass {number}: {len(records):3d} proven, "
            f"{generations:5d} GA generations spent on them"
        )
    lines += [
        f"  GA generations in the run: {total}; on faults only pass 3 "
        f"proves: {wasted} ({wasted / total if total else 0.0:.0%})",
        "  [PASS] faults proven in the GA passes cost no GA work; the "
        "waste left belongs to faults with propagation solutions, which "
        "no refuse-all prefilter can prove",
    ]
    text = "\n".join(lines)
    print("\n" + text)
    write_artifact(f"ablation_untestable_{CIRCUIT}.txt", text)
