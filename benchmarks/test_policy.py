"""Learned fault-scheduling policy: less wall time, in-sample coverage.

The full ``repro.policy`` pipeline on real circuits, end to end:

1. a **static** s298+s344 campaign (fixed seed, wall-clock-free) runs the
   Table-I schedule unchanged and saves its ``repro-run-report/v1``;
2. ``train_policy`` mines that report's per-fault dispositions into a
   ``repro-policy/v1`` artifact — exactly what ``repro train-policy``
   does;
3. a **policy** campaign reruns the identical spec with ``policy_file``
   set, so predicted-futile faults defer straight to the mop-up pass and
   faults predicted to need pass N skip the passes before it.

Gated properties:

* per-circuit *detected fault sets* are identical.  This holds here
  because both campaigns run per-fault items and the policy is trained
  and applied on the same 24 faults per circuit; it is not a general
  property.  Out of sample, or in larger work items, the policy has lost
  detections (docs/POLICY.md gives the measurements);
* the policy campaign's solve phase finishes in at most
  ``SOLVE_RATIO_TARGET`` of the static campaign's — skipped GA passes on
  futile faults are the headline saving;
* the policy actually engaged (non-zero ``atpg.policy.pass_skips``).

Budgets are structural (``time_scale=None``): small PODEM backtrack
budgets and a shallow ``justify_depth`` keep the deterministic passes
polynomial on these deeper circuits, so both campaigns are bit-for-bit
deterministic and the coverage-equality gate is exact, not statistical.

Results land in ``benchmarks/out/policy.txt`` and the machine-readable
``BENCH_policy.json`` at the repository root, gated in CI by
``check_regression.py --policy``.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.campaign import CampaignRunner, CampaignSpec
from repro.policy import dataset_from_reports, train_policy

from .conftest import write_artifact

#: Policy solve wall-time must be at most this fraction of static.
SOLVE_RATIO_TARGET = 0.90

#: Shared campaign shape (see module docstring for the budget rationale).
CAMPAIGN = dict(
    circuits=("s298", "s344"),
    name="policy-bench",
    seed=7,
    passes=3,
    backtracks=5,
    seq_len=16,
    fault_limit=24,
    justify_depth=3,
)


def run_campaign(journal, **extra):
    spec = CampaignSpec(**CAMPAIGN, **extra)
    return CampaignRunner(spec, str(journal)).run()


def detected_sets(result):
    return {
        name: sorted(m.detected) for name, m in result.circuits.items()
    }


def test_policy_schedule_gate(tmp_path):
    static = run_campaign(tmp_path / "static.jsonl")
    report_path = tmp_path / "static_report.json"
    static.report.save(str(report_path))

    # the same pipeline `repro train-policy` runs: mine the report's
    # dispositions, fit the three models, serialize the artifact
    policy = train_policy(dataset_from_reports([str(report_path)]))
    policy_path = tmp_path / "policy.json"
    policy.save(str(policy_path))

    steered = run_campaign(
        tmp_path / "steered.jsonl", policy_file=str(policy_path)
    )

    static_solve = static.phase_times["solve_s"]
    policy_solve = steered.phase_times["solve_s"]
    ratio = policy_solve / static_solve if static_solve else 1.0
    counters = steered.report.metrics.get("counters", {})
    policy_counters = {
        name: value
        for name, value in sorted(counters.items())
        if name.startswith("atpg.policy.")
    }
    coverage_equal = detected_sets(steered) == detected_sets(static)

    lines = [
        f"Learned schedule policy — seed {CAMPAIGN['seed']}, "
        f"{CAMPAIGN['fault_limit']} faults/circuit, "
        f"{CAMPAIGN['passes']} passes, no wall-clock limits:",
        f"  {'circuit':<8s} {'static cov':>10s} {'policy cov':>10s} "
        f"{'detected equal':>15s}",
    ]
    for name in CAMPAIGN["circuits"]:
        s, p = static.circuits[name], steered.circuits[name]
        equal = sorted(s.detected) == sorted(p.detected)
        lines.append(
            f"  {name:<8s} {s.coverage:10.3f} {p.coverage:10.3f} "
            f"{str(equal):>15s}"
        )
    lines.append(
        f"  solve wall: static {static_solve:.2f} s, "
        f"policy {policy_solve:.2f} s — ratio {ratio:.3f} "
        f"(target <= {SOLVE_RATIO_TARGET})"
    )
    for name, value in policy_counters.items():
        lines.append(f"  {name}: {value}")
    text = "\n".join(lines)
    print("\n" + text)
    write_artifact("policy.txt", text)

    payload = {
        "schema": "repro-bench-policy/v1",
        "campaign": dict(CAMPAIGN, circuits=list(CAMPAIGN["circuits"])),
        "fingerprint": policy.fingerprint,
        "trained_rows": policy.trained_rows,
        "circuits": {
            name: {
                "static_coverage": round(static.circuits[name].coverage, 6),
                "policy_coverage": round(steered.circuits[name].coverage, 6),
                "detected_equal": sorted(static.circuits[name].detected)
                == sorted(steered.circuits[name].detected),
            }
            for name in CAMPAIGN["circuits"]
        },
        "coverage_equal": coverage_equal,
        "solve_seconds_static": round(static_solve, 4),
        "solve_seconds_policy": round(policy_solve, 4),
        "solve_ratio": round(ratio, 4),
        "policy_counters": policy_counters,
    }
    Path(__file__).parent.parent.joinpath("BENCH_policy.json").write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )

    assert coverage_equal, (
        "policy campaign changed the detected fault sets: "
        f"{detected_sets(steered)} vs {detected_sets(static)}"
    )
    assert policy_counters.get("atpg.policy.pass_skips", 0) > 0, (
        "the policy never skipped a pass — it was inert"
    )
    assert ratio <= SOLVE_RATIO_TARGET, (
        f"policy solve time is {ratio:.3f}x static "
        f"(target <= {SOLVE_RATIO_TARGET})"
    )
