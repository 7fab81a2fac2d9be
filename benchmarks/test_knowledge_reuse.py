"""State-knowledge reuse: hit rates, justification-call reduction, parity.

Three fixed-seed, wall-clock-free (``time_scale=None``) GA-HITEC runs per
circuit:

* **off** — the knowledge store disabled (the pre-knowledge engine);
* **cold** — an empty store that fills as the run learns;
* **warm** — the cold run's store preloaded, measuring cross-run reuse.

Gated properties (all deterministic under the fixed seed):

* coverage with knowledge (cold and warm) is never below coverage
  without it — reuse is an accelerator, not a result-changer;
* the warm run registers knowledge activity (lookup hits or pruned
  solutions);
* the warm runs issue no more justifier calls than the knowledge-off
  runs in aggregate — stored facts replace repeated searches.

Results land in ``benchmarks/out/knowledge_reuse.txt`` and the
machine-readable ``BENCH_knowledge.json`` at the repository root.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.atpg.context import AtpgContext
from repro.circuits import iscas89
from repro.hybrid.driver import HybridTestGenerator
from repro.hybrid.passes import gahitec_schedule
from repro.knowledge import StateKnowledge
from repro.telemetry.metrics import TelemetryRecorder

from .conftest import BACKTRACK_BASE, write_artifact

CIRCUITS = ["s344", "s386"]
SEED = 7
FAULT_LIMIT = 8


def run_once(circuit_name, knowledge):
    circ = iscas89(circuit_name)
    faults = AtpgContext(circ).faults[:FAULT_LIMIT]
    # wall-clock-free, so every budget must be structural: a shallow
    # justify depth and small populations keep the deterministic pass
    # from exploring the exponential reverse-time tail
    schedule = gahitec_schedule(
        max(2, 2 * circ.sequential_depth),
        time_scale=None,
        backtrack_base=min(8, BACKTRACK_BASE),
        justify_depth=3,
        population_scale=16,
    )
    tel = TelemetryRecorder()
    driver = HybridTestGenerator(
        circ, seed=SEED, faults=faults, telemetry=tel, knowledge=knowledge
    )
    result = driver.run(schedule)
    return {
        "coverage": result.fault_coverage,
        "justify_calls": tel.registry.counters.get("atpg.justify_calls", 0),
        "stats": dict(result.knowledge_stats),
        "store": driver.knowledge,
    }


def test_knowledge_reuse_gate():
    rows = {}
    for name in CIRCUITS:
        off = run_once(name, knowledge=False)
        cold = run_once(name, knowledge=True)
        warm_store = StateKnowledge.from_dict(cold["store"].to_dict())
        warm = run_once(name, knowledge=warm_store)
        rows[name] = {"off": off, "cold": cold, "warm": warm}

    def total(mode, key):
        return sum(rows[n][mode][key] for n in CIRCUITS)

    def hits(stats):
        return (
            stats.get("justified_hits", 0)
            + stats.get("unjustifiable_hits", 0)
            + stats.get("podem_pruned", 0)
        )

    lines = [
        f"State-knowledge reuse — seed {SEED}, "
        f"{FAULT_LIMIT} faults/circuit, no wall-clock limits:",
        f"  {'circuit':<8s} {'mode':<5s} {'coverage':>8s} "
        f"{'justify':>8s} {'hits':>6s} {'records':>8s}",
    ]
    for name in CIRCUITS:
        for mode in ("off", "cold", "warm"):
            row = rows[name][mode]
            lines.append(
                f"  {name:<8s} {mode:<5s} {row['coverage']:8.3f} "
                f"{row['justify_calls']:8d} {hits(row['stats']):6d} "
                f"{row['stats'].get('records', 0):8d}"
            )
    reduction = total("off", "justify_calls") - total("warm", "justify_calls")
    lines.append(
        f"  warm runs issue {reduction} fewer justifier calls than "
        f"knowledge-off ({total('warm', 'justify_calls')} vs "
        f"{total('off', 'justify_calls')})"
    )
    text = "\n".join(lines)
    print("\n" + text)
    write_artifact("knowledge_reuse.txt", text)

    payload = {
        "schema": "repro-bench-knowledge/v1",
        "seed": SEED,
        "fault_limit": FAULT_LIMIT,
        "circuits": {
            name: {
                mode: {
                    "coverage": rows[name][mode]["coverage"],
                    "justify_calls": rows[name][mode]["justify_calls"],
                    "knowledge_stats": rows[name][mode]["stats"],
                }
                for mode in ("off", "cold", "warm")
            }
            for name in CIRCUITS
        },
        "justify_calls_off": total("off", "justify_calls"),
        "justify_calls_warm": total("warm", "justify_calls"),
        "justify_call_reduction": reduction,
        "warm_hits": sum(hits(rows[n]["warm"]["stats"]) for n in CIRCUITS),
    }
    Path(__file__).parent.parent.joinpath("BENCH_knowledge.json").write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )

    for name in CIRCUITS:
        assert rows[name]["cold"]["coverage"] >= rows[name]["off"]["coverage"], (
            f"{name}: an empty knowledge store lost coverage"
        )
        assert rows[name]["warm"]["coverage"] >= rows[name]["off"]["coverage"], (
            f"{name}: preloaded knowledge lost coverage"
        )
    assert payload["warm_hits"] > 0, "preloaded knowledge never registered"
    assert payload["justify_calls_warm"] <= payload["justify_calls_off"], (
        "knowledge reuse increased justifier work"
    )
