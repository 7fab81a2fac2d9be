"""Campaign scaling: wall clock vs worker count, drill and real ATPG.

Two measurements, both written to ``BENCH_campaign.json``:

* **drill mode**: every work item is replaced by a fixed-duration
  synthetic workload (``synthetic_item_seconds``), so the numbers isolate
  the orchestration layer — leases, heartbeats, journaling, merge — from
  ATPG cost *and* from how many cores the runner happens to have (the
  sleeps overlap even on one core).  A 4-worker campaign must clear 2x
  over 1 worker, always.
* **real ATPG**: s298 at per-fault granularity under the warm-fork pool.
  s27 (~0.3 s wall) is far too small to amortize fork cost; s298 with
  ~100 per-fault items gives every worker a meaningful share.  Every
  worker count must end in the same vectors and detected sets.  The
  4-worker speedup is **gated at 2.5x when the host has ≥4 cores** (CI
  runners do); on smaller hosts the CPU-bound speedup is physically
  capped, so the number is recorded with the core count and gated by
  ``check_regression.py --campaign`` only when it is meaningful.

Per-phase (warm/fork/solve/merge) wall times for every worker count land
in the JSON, so a regression can be attributed — e.g. fork cost growing
with worker count means warm state stopped being inherited.

Results land in ``benchmarks/out/campaign_scaling.txt`` and the
machine-readable ``BENCH_campaign.json`` at the repository root.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.campaign import CampaignRunner, CampaignSpec

from .conftest import write_artifact

WORKER_COUNTS = [1, 2, 4]

#: 4-worker speedup floors (see module docstring for when each applies).
DRILL_TARGET = 2.0
REAL_TARGET = 2.5

#: Drill campaign: 3 circuits x 4 items, each a fixed 0.25 s workload.
DRILL_SPEC = dict(
    circuits=("s27", "s298", "s344"),
    name="scaling-drill",
    seed=2,
    shard_size=3,
    fault_limit=12,
    synthetic_item_seconds=0.25,
)

#: Real-ATPG campaign: s298, per-fault items — the warm-fork pool's
#: target configuration.  passes/backtracks trimmed so
#: one worker finishes in tens of seconds while each fault still does
#: real deterministic + GA work.
REAL_SPEC = dict(
    circuits=("s298",),
    name="scaling-real",
    seed=2,
    shard_size=1,
    passes=1,
    backtracks=50,
    fault_limit=96,
)


def run_timed(spec_kwargs, journal, workers):
    spec = CampaignSpec(**spec_kwargs)
    start = time.perf_counter()
    result = CampaignRunner(spec, str(journal), workers=workers).run()
    return time.perf_counter() - start, result


def phase_dict(result):
    return {name: round(seconds, 4)
            for name, seconds in sorted(result.phase_times.items())}


def test_campaign_worker_scaling(tmp_path):
    cores = os.cpu_count() or 1

    drill = {}
    drill_items = None
    for workers in WORKER_COUNTS:
        seconds, result = run_timed(
            DRILL_SPEC, tmp_path / f"drill{workers}.jsonl", workers
        )
        drill[workers] = seconds
        drill_items = result.items_done
        assert result.items_failed == 0

    real = {}
    real_phases = {}
    real_coverage = {}
    real_outcomes = {}
    real_items = None
    for workers in WORKER_COUNTS:
        seconds, result = run_timed(
            REAL_SPEC, tmp_path / f"real{workers}.jsonl", workers
        )
        real[workers] = seconds
        real_phases[workers] = phase_dict(result)
        real_coverage[workers] = result.fault_coverage
        real_items = result.items_done
        assert result.items_failed == 0
        real_outcomes[workers] = {
            name: (c.vectors, c.detected)
            for name, c in result.circuits.items()
        }
        # items run with isolated knowledge stores, so scheduling is
        # invisible: every worker count ends in the same test set
        assert real_outcomes[workers] == real_outcomes[1]

    drill_speedups = {w: drill[1] / drill[w] for w in WORKER_COUNTS}
    real_speedups = {w: real[1] / real[w] for w in WORKER_COUNTS}

    lines = [
        f"Campaign scaling — host cores: {cores}",
        f"drill: {drill_items} items x "
        f"{DRILL_SPEC['synthetic_item_seconds']} s over "
        f"{len(DRILL_SPEC['circuits'])} circuits",
    ]
    for workers in WORKER_COUNTS:
        lines.append(
            f"  {workers} worker(s): {drill[workers]:6.2f} s wall "
            f"({drill_speedups[workers]:4.2f}x)"
        )
    drill_verdict = "PASS" if drill_speedups[4] >= DRILL_TARGET else "FAIL"
    lines.append(
        f"  [{drill_verdict}] 4 workers are {drill_speedups[4]:.2f}x "
        f"faster than 1 (target: {DRILL_TARGET}x — orchestration "
        "overhead stays small)"
    )
    lines.append(
        f"real ATPG: s298, {real_items} per-fault items, warm fork"
    )
    for workers in WORKER_COUNTS:
        phases = real_phases[workers]
        lines.append(
            f"  {workers} worker(s): {real[workers]:6.2f} s wall "
            f"({real_speedups[workers]:4.2f}x)  "
            f"warm {phases['warm_s']:.2f}  fork {phases['fork_s']:.2f}  "
            f"solve {phases['solve_s']:.2f}  merge {phases['merge_s']:.2f}"
        )
    if cores >= 4:
        real_verdict = "PASS" if real_speedups[4] >= REAL_TARGET else "FAIL"
        lines.append(
            f"  [{real_verdict}] 4 workers are {real_speedups[4]:.2f}x "
            f"faster than 1 (target: {REAL_TARGET}x)"
        )
    else:
        lines.append(
            f"  [SKIP] {real_speedups[4]:.2f}x at 4 workers — "
            f"{REAL_TARGET}x gate needs >=4 cores, host has {cores}"
        )
    text = "\n".join(lines)
    print("\n" + text)
    write_artifact("campaign_scaling.txt", text)

    payload = {
        "schema": "repro-bench-campaign/v1",
        "cores": cores,
        "drill": {
            "circuits": list(DRILL_SPEC["circuits"]),
            "items": drill_items,
            "item_seconds": DRILL_SPEC["synthetic_item_seconds"],
            "wall_seconds": {str(w): drill[w] for w in WORKER_COUNTS},
            "speedup": {str(w): drill_speedups[w] for w in WORKER_COUNTS},
        },
        "real_atpg": {
            "circuits": list(REAL_SPEC["circuits"]),
            "items": real_items,
            "passes": REAL_SPEC["passes"],
            "backtracks": REAL_SPEC["backtracks"],
            "fault_limit": REAL_SPEC["fault_limit"],
            "wall_seconds": {str(w): real[w] for w in WORKER_COUNTS},
            "speedup": {str(w): real_speedups[w] for w in WORKER_COUNTS},
            "phase_seconds": {
                str(w): real_phases[w] for w in WORKER_COUNTS
            },
            "coverage": {
                str(w): round(real_coverage[w], 6) for w in WORKER_COUNTS
            },
        },
        "speedup_workers4": drill_speedups[4],
        "real_speedup_workers4": real_speedups[4],
    }
    bench_path = Path(__file__).parent.parent / "BENCH_campaign.json"
    try:
        # read-modify-write: the service load benchmark owns "service"
        existing = json.loads(bench_path.read_text(encoding="utf-8"))
        if "service" in existing:
            payload["service"] = existing["service"]
    except (OSError, json.JSONDecodeError):
        pass
    bench_path.write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )
    assert drill_speedups[4] >= DRILL_TARGET, (
        f"orchestration overhead ate the speedup: {drill_speedups[4]:.2f}x"
    )
    if cores >= 4:
        assert real_speedups[4] >= REAL_TARGET, (
            f"real-ATPG 4-worker speedup {real_speedups[4]:.2f}x is below "
            f"the {REAL_TARGET}x floor on a {cores}-core host"
        )
