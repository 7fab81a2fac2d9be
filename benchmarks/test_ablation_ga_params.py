"""Table I ablation: the pass-1 → pass-2 GA search-space expansion.

The paper doubles everything between the first two passes — population 64
to 128, 4 to 8 generations, sequence length x/2 to x — precisely so pass 2
justifies states pass 1 could not.  This benchmark measures GA success on
harvested justification tasks under the pass-1 configuration, the pass-2
configuration, and a deliberately starved configuration, confirming the
escalation is worth its cost.
"""

from __future__ import annotations

import random

import pytest

from repro.atpg.context import AtpgContext
from repro.circuits import iscas89
from repro.ga import GAJustifyParams, GAStateJustifier

from ._tasks import harvest_tasks
from .conftest import write_artifact

SEEDS = [0, 1, 2]


def configurations(depth: int):
    x = 4 * depth
    return {
        "starved (pop 16, 2 gen, x/4)": GAJustifyParams(
            seq_len=max(1, x // 4), population_size=16, generations=2
        ),
        "pass 1  (pop 64, 4 gen, x/2)": GAJustifyParams(
            seq_len=max(1, x // 2), population_size=64, generations=4
        ),
        "pass 2  (pop 128, 8 gen, x)": GAJustifyParams(
            seq_len=x, population_size=128, generations=8
        ),
    }


@pytest.mark.parametrize("name", ["s298"])
def test_ga_parameter_escalation(benchmark, name):
    circuit = iscas89(name)
    tasks = harvest_tasks(circuit, max_tasks=25)
    assert tasks
    ctx = AtpgContext(circuit)
    configs = configurations(circuit.sequential_depth)
    results = {}

    def run_all():
        for label, params in configs.items():
            wins = 0
            for seed in SEEDS:
                justifier = GAStateJustifier(ctx, rng=random.Random(seed))
                for task in tasks:
                    res = justifier.justify(
                        task.required_dict, params, fault=task.fault
                    )
                    wins += int(res.success)
            results[label] = wins
        return results

    benchmark.pedantic(run_all, iterations=1, rounds=1)

    attempts = len(tasks) * len(SEEDS)
    lines = [f"GA parameter escalation — {name} "
             f"({len(tasks)} tasks x {len(SEEDS)} seeds):"]
    for label, wins in results.items():
        lines.append(f"  {label:<30s} {wins:>4d}/{attempts} justified")
    ordered = list(results.values())
    verdict = "PASS" if ordered[0] <= ordered[1] <= ordered[2] + 2 else "FAIL"
    lines.append(
        f"  [{verdict}] success is monotone in the search-space expansion"
    )
    text = "\n".join(lines)
    print("\n" + text)
    write_artifact(f"ablation_ga_params_{name}.txt", text)
