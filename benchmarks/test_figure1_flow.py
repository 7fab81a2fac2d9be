"""Figure 1: the hybrid test-generation flow, traced.

Figure 1 of the paper is the control-flow diagram: target a fault, excite
it, propagate the effect to a PO, backtrace to the PIs and frame-0
flip-flops, justify the state with the GA, and loop back into the
propagation phase when justification fails.  This benchmark realises the
figure as data: it runs GA-HITEC's first pass and reports how many times
each arrow of the diagram was taken, asserting the structural relations
the figure implies.
"""

from __future__ import annotations

import pytest

from repro.atpg.context import AtpgContext
from repro.atpg.hitec import FlowCounters, SequentialTestGenerator
from repro.atpg.podem import Limits
from repro.circuits import iscas89
from repro.faults.collapse import collapse_faults
from repro.ga import GAJustifyParams, GAStateJustifier
from repro.simulation.compiled import compile_circuit

from .conftest import BACKTRACK_BASE, write_artifact

import random


def trace_flow(name: str, max_faults: int = 80) -> FlowCounters:
    circuit = iscas89(name)
    cc = compile_circuit(circuit)
    ctx = AtpgContext(cc)
    gen = SequentialTestGenerator(ctx, max_frames=8)
    justifier_rng = random.Random(0)
    ga = GAStateJustifier(ctx, rng=justifier_rng)
    params = GAJustifyParams(seq_len=4 * circuit.sequential_depth or 8,
                             population_size=64, generations=4)

    total = FlowCounters()
    for fault in collapse_faults(circuit)[:max_faults]:
        res = gen.generate(
            fault,
            lambda req: ga.justify(req, params, fault=fault),
            Limits(max_backtracks=BACKTRACK_BASE),
        )
        c = res.counters
        total.excite_attempts += c.excite_attempts
        total.propagation_solutions += c.propagation_solutions
        total.justify_calls += c.justify_calls
        total.justify_successes += c.justify_successes
        total.propagation_backtracks += c.propagation_backtracks
    return total


@pytest.mark.parametrize("name", ["s27", "s298"])
def test_figure1_flow(benchmark, name):
    flow = benchmark.pedantic(trace_flow, args=(name,), iterations=1, rounds=1)

    # structural relations implied by the Figure 1 diagram:
    # every justification call belongs to some propagation solution …
    assert flow.justify_calls <= flow.propagation_solutions
    # … successes are a subset of calls …
    assert flow.justify_successes <= flow.justify_calls
    # … and every failed justification re-enters the propagation phase.
    assert flow.propagation_backtracks >= (
        flow.justify_calls - flow.justify_successes
    )

    text = "\n".join([
        f"Figure 1 flow trace — {name} (first pass, GA justification)",
        f"  fault excitation/propagation searches : {flow.excite_attempts}",
        f"  propagation solutions found           : {flow.propagation_solutions}",
        f"  state justifications attempted (GA)   : {flow.justify_calls}",
        f"  state justifications succeeded        : {flow.justify_successes}",
        f"  backtracks into the propagation phase : {flow.propagation_backtracks}",
    ])
    print("\n" + text)
    write_artifact(f"figure1_{name}.txt", text)
