"""Section IV-A ablation: the 9/10–1/10 fitness weighting versus ½–½.

The paper: *"Experiments on several circuits confirmed that the weights
chosen work better than equal weights of 1/2"* — a heavy weighting of the
good-circuit goal keeps the strings evolving steadily in one direction
instead of oscillating between the good and faulty goals.

This benchmark harvests real justification tasks from ATPG runs on two
circuits and compares GA success counts under both weightings across
several seeds, reporting the paper-style verdict.
"""

from __future__ import annotations

import random

import pytest

from repro.atpg.context import AtpgContext
from repro.circuits import iscas89
from repro.ga import GAJustifyParams, GAStateJustifier

from ._tasks import harvest_tasks
from .conftest import write_artifact

WEIGHTINGS = {
    "paper (0.9 / 0.1)": (0.9, 0.1),
    "equal (0.5 / 0.5)": (0.5, 0.5),
}

SEEDS = [0, 1, 2]
CIRCUITS = ["s298", "s344"]


def run_weighting(circuit, tasks, weights, seq_len) -> int:
    good_w, faulty_w = weights
    ctx = AtpgContext(circuit)
    successes = 0
    for seed in SEEDS:
        justifier = GAStateJustifier(ctx, rng=random.Random(seed))
        for task in tasks:
            params = GAJustifyParams(
                seq_len=seq_len,
                population_size=64,
                generations=4,
                good_weight=good_w,
                faulty_weight=faulty_w,
            )
            res = justifier.justify(
                task.required_dict, params, fault=task.fault
            )
            successes += int(res.success)
    return successes


@pytest.mark.parametrize("name", CIRCUITS)
def test_fitness_weight_ablation(benchmark, name):
    circuit = iscas89(name)
    tasks = harvest_tasks(circuit, max_tasks=25)
    assert tasks, "no justification tasks harvested"
    seq_len = 4 * circuit.sequential_depth

    results = {}

    def run_all():
        for label, weights in WEIGHTINGS.items():
            results[label] = run_weighting(circuit, tasks, weights, seq_len)
        return results

    benchmark.pedantic(run_all, iterations=1, rounds=1)

    attempts = len(tasks) * len(SEEDS)
    lines = [f"Fitness-weight ablation — {name} "
             f"({len(tasks)} tasks x {len(SEEDS)} seeds):"]
    for label, wins in results.items():
        lines.append(f"  {label:<18s} {wins:>4d}/{attempts} justified")
    paper_wins = results["paper (0.9 / 0.1)"]
    equal_wins = results["equal (0.5 / 0.5)"]
    verdict = "PASS" if paper_wins >= equal_wins else "FAIL"
    lines.append(
        f"  [{verdict}] paper weighting >= equal weighting "
        "(paper: chosen weights work better)"
    )
    text = "\n".join(lines)
    print("\n" + text)
    write_artifact(f"ablation_fitness_{name}.txt", text)
