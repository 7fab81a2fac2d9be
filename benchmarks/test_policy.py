"""Learned fault-scheduling policy, graded on faults it never saw.

The full ``repro.policy`` pipeline on real circuits, end to end:

1. a **static** s298+s344 campaign (fixed seed, wall-clock-free) runs the
   Table-I schedule over each circuit's first ``TRAIN_FAULTS`` faults and
   saves its ``repro-run-report/v1``;
2. ``train_policy`` mines that report's per-fault dispositions into a
   ``repro-policy/v2`` artifact — exactly what ``repro train-policy``
   does;
3. per circuit and per shard size, a **static** and a **policy** campaign
   run over the circuit's first ``HELD_OUT_FAULTS`` faults, most of which
   the training never saw.  The policy campaign starts each fault at the
   pass the artifact predicts will resolve it.

Gated per circuit and shard size:

* the policy campaign's detected fault set contains the static one's;
* the policy engaged (non-zero ``atpg.policy.pass_skips``).

Gated per shard size, over both circuits: the policy campaigns' solve
phases finish in at most ``SOLVE_RATIO_TARGET`` of the static ones' —
skipped passes are the saving.  The ratio is not gated per circuit:
s298 has little to skip (over the two runs that set this gate, its own
ratio read 0.86–0.97 at shard size 1 and 0.81–0.88 at 8), and its
campaigns take a quarter of the solve time; each circuit's ratio is
recorded for information.

Budgets are structural (``time_scale=None``): small PODEM backtrack
budgets and a shallow ``justify_depth`` keep the deterministic passes
polynomial on these deeper circuits, so every campaign is bit-for-bit
deterministic and the containment gate is exact, not statistical.  Item
seeds derive from the item id, so a one-circuit campaign gives that
circuit the same results as a campaign over both.

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

#: Faults per circuit the policy is trained on, and graded on.
TRAIN_FAULTS = 24
HELD_OUT_FAULTS = 200

#: Shard sizes graded: per-fault items, and items sharing a store.
SHARD_SIZES = (1, 8)

#: Shared campaign shape (see module docstring for the budget rationale).
CAMPAIGN = dict(
    circuits=("s298", "s344"),
    name="policy-bench",
    seed=7,
    passes=3,
    backtracks=5,
    seq_len=16,
    justify_depth=3,
)


def run_campaign(journal, **fields):
    spec = CampaignSpec(**dict(CAMPAIGN, **fields))
    return CampaignRunner(spec, str(journal)).run()


def grade(tmp_path, circuit, shard_size, policy_path):
    """One held-out static-vs-policy row for ``circuit``."""
    fields = dict(
        circuits=(circuit,), fault_limit=HELD_OUT_FAULTS, shard_size=shard_size
    )
    tag = f"{circuit}-{shard_size}"
    static = run_campaign(tmp_path / f"static-{tag}.jsonl", **fields)
    steered = run_campaign(
        tmp_path / f"policy-{tag}.jsonl", policy_file=policy_path, **fields
    )
    static_set = set(static.circuits[circuit].detected)
    policy_set = set(steered.circuits[circuit].detected)
    static_solve = static.phase_times["solve_s"]
    policy_solve = steered.phase_times["solve_s"]
    counters = steered.report.metrics.get("counters", {})
    return {
        "circuit": circuit,
        "shard_size": shard_size,
        "static_detected": len(static_set),
        "policy_detected": len(policy_set),
        "lost": sorted(static_set - policy_set),
        "gained": sorted(policy_set - static_set),
        "solve_seconds_static": round(static_solve, 4),
        "solve_seconds_policy": round(policy_solve, 4),
        "solve_ratio": round(
            policy_solve / static_solve if static_solve else 1.0, 4
        ),
        "pass_skips": int(counters.get("atpg.policy.pass_skips", 0)),
    }


def test_policy_schedule_gate(tmp_path):
    train = run_campaign(tmp_path / "train.jsonl", fault_limit=TRAIN_FAULTS)
    report_path = tmp_path / "train_report.json"
    train.report.save(str(report_path))

    # the same pipeline `repro train-policy` runs: mine the report's
    # dispositions, fit the pass model, serialize the artifact
    policy = train_policy(dataset_from_reports([str(report_path)]))
    policy_path = str(tmp_path / "policy.json")
    policy.save(policy_path)

    rows = [
        grade(tmp_path, circuit, shard_size, policy_path)
        for shard_size in SHARD_SIZES
        for circuit in CAMPAIGN["circuits"]
    ]
    shards = []
    for shard_size in SHARD_SIZES:
        mine = [row for row in rows if row["shard_size"] == shard_size]
        static_solve = sum(row["solve_seconds_static"] for row in mine)
        policy_solve = sum(row["solve_seconds_policy"] for row in mine)
        shards.append({
            "shard_size": shard_size,
            "solve_seconds_static": round(static_solve, 4),
            "solve_seconds_policy": round(policy_solve, 4),
            "solve_ratio": round(policy_solve / static_solve, 4),
        })

    lines = [
        f"Learned schedule policy, held out — seed {CAMPAIGN['seed']}, "
        f"trained on {TRAIN_FAULTS} faults/circuit, graded on "
        f"{HELD_OUT_FAULTS} ({HELD_OUT_FAULTS - TRAIN_FAULTS} unseen), "
        f"{CAMPAIGN['passes']} passes, no wall-clock limits:",
        f"  {'circuit':<8s} {'shard':>5s} {'static':>6s} {'policy':>6s} "
        f"{'lost':>4s} {'static s':>9s} {'policy s':>9s} {'ratio':>6s} "
        f"{'skips':>6s}",
    ]
    for row in rows:
        lines.append(
            f"  {row['circuit']:<8s} {row['shard_size']:5d} "
            f"{row['static_detected']:6d} {row['policy_detected']:6d} "
            f"{len(row['lost']):4d} {row['solve_seconds_static']:9.2f} "
            f"{row['solve_seconds_policy']:9.2f} {row['solve_ratio']:6.3f} "
            f"{row['pass_skips']:6d}"
        )
    for shard in shards:
        lines.append(
            f"  shard size {shard['shard_size']}, both circuits: solve "
            f"static {shard['solve_seconds_static']:.2f} s, policy "
            f"{shard['solve_seconds_policy']:.2f} s — ratio "
            f"{shard['solve_ratio']:.3f} (target <= {SOLVE_RATIO_TARGET})"
        )
    text = "\n".join(lines)
    print("\n" + text)
    write_artifact("policy.txt", text)

    payload = {
        "schema": "repro-bench-policy/v2",
        "campaign": dict(CAMPAIGN, circuits=list(CAMPAIGN["circuits"])),
        "train_faults": TRAIN_FAULTS,
        "held_out_faults": HELD_OUT_FAULTS,
        "fingerprint": policy.fingerprint,
        "trained_rows": policy.trained_rows,
        "runs": rows,
        "shards": shards,
    }
    Path(__file__).parent.parent.joinpath("BENCH_policy.json").write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )

    for row in rows:
        where = f"{row['circuit']} at shard size {row['shard_size']}"
        assert not row["lost"], (
            f"{where}: the policy lost static detections {row['lost']}"
        )
        assert row["pass_skips"] > 0, (
            f"{where}: the policy never skipped a pass — it was inert"
        )
    for shard in shards:
        assert shard["solve_ratio"] <= SOLVE_RATIO_TARGET, (
            f"shard size {shard['shard_size']}: policy solve time is "
            f"{shard['solve_ratio']:.3f}x static "
            f"(target <= {SOLVE_RATIO_TARGET})"
        )
