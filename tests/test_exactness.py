"""Exact-oracle tests: engine claims versus exhaustive product-machine BFS.

For tiny circuits the question "is this fault detectable?" is decidable
exactly under three-valued semantics: breadth-first search over the
reachable (good state, faulty state) product space from the all-unknown
power-up state, applying every input vector at every step, looking for a
frame where some primary output is known in both machines and differs.

The oracle then checks the deterministic engine in both directions:

* **soundness** — a fault the engine proves UNTESTABLE must be
  undetectable by *every* input sequence (any length);
* **completeness (bounded)** — a fault the oracle detects within the
  engine's frame budget must not be proven untestable, and with generous
  limits should be DETECTED.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.atpg.context import AtpgContext
from repro.atpg.hitec import SequentialTestGenerator
from repro.atpg.hitec import TestGenStatus as GenStatus
from repro.atpg.justify import justify_state
from repro.atpg.podem import Limits
from repro.circuit.gates import GateType
from repro.circuit.netlist import Circuit
from repro.circuits import s27
from repro.faults.collapse import collapse_faults
from repro.faults.model import Fault
from repro.simulation.compiled import compile_circuit
from repro.simulation.encoding import X, pack_const, unpack
from repro.simulation.fault_sim import injection_for
from repro.simulation.logic_sim import FrameSimulator

from .conftest import random_circuits


def exact_detection_depth(circuit, fault, max_depth: int = 12):
    """BFS the good x faulty product machine; return the shortest number
    of frames to a definite detection, or None if unreachable within
    ``max_depth`` *and* the frontier closed (proven undetectable)."""
    cc = compile_circuit(circuit)
    injections = [injection_for(cc, fault, 1)]
    n_ff = len(cc.ff_out)
    n_pi = len(cc.pi)
    all_vectors = list(itertools.product([0, 1], repeat=n_pi))

    good_sim = FrameSimulator(cc, width=1)
    bad_sim = FrameSimulator(cc, width=1, injections=injections)

    def step(state_pair, vector):
        gs, fs = state_pair
        good_sim.reset()
        good_sim.set_state([pack_const(v, 1) for v in gs])
        bad_sim.reset()
        bad_sim.set_state([pack_const(v, 1) for v in fs])
        packed = [pack_const(v, 1) for v in vector]
        g_po = good_sim.step(packed)
        b_po = bad_sim.step(packed)
        detect = any(
            unpack(g, 1)[0] != X
            and unpack(b, 1)[0] != X
            and unpack(g, 1)[0] != unpack(b, 1)[0]
            for g, b in zip(g_po, b_po)
        )
        next_pair = (
            tuple(unpack(v, 1)[0] for v in good_sim.get_state()),
            tuple(unpack(v, 1)[0] for v in bad_sim.get_state()),
        )
        return detect, next_pair

    start = (tuple([X] * n_ff), tuple([X] * n_ff))
    seen = {start}
    frontier = [start]
    for depth in range(1, max_depth + 1):
        next_frontier = []
        for pair in frontier:
            for vector in all_vectors:
                detect, nxt = step(pair, vector)
                if detect:
                    return depth
                if nxt not in seen:
                    seen.add(nxt)
                    next_frontier.append(nxt)
        if not next_frontier:
            return None  # state space closed: provably undetectable
        frontier = next_frontier
    return -1  # undecided within max_depth (should not happen on tiny FSMs)


def run_engine(circuit, fault):
    cc = compile_circuit(circuit)
    gen = SequentialTestGenerator(AtpgContext(cc), max_frames=8, max_solutions=16)

    def justifier(required):
        return justify_state(cc, required, 10, Limits(20_000))

    return gen.generate(fault, justifier, Limits(20_000))


class TestOracleAgreement:
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_engine_vs_oracle(self, data):
        circuit = data.draw(random_circuits(max_pi=2, max_ff=2, max_gates=6))
        faults = collapse_faults(circuit)[:6]
        for fault in faults:
            truth = exact_detection_depth(circuit, fault)
            outcome = run_engine(circuit, fault)
            if outcome.status is GenStatus.UNTESTABLE:
                assert truth is None, (
                    f"{fault} proven untestable but oracle detects it "
                    f"(depth {truth}) in {circuit.gates}"
                )
            if outcome.status is GenStatus.DETECTED:
                assert truth is not None and truth != -1, (
                    f"{fault} detected by the engine but the oracle says "
                    f"undetectable in {circuit.gates}"
                )

    def test_oracle_on_known_circuit(self):
        """Every collapsed s27 fault is detectable (the oracle agrees)."""
        circuit = s27()
        # the product space of s27 (3 FFs) is small enough to decide a few
        for fault in collapse_faults(circuit)[:6]:
            assert exact_detection_depth(circuit, fault, max_depth=10) not in (
                None,
            )

    def test_window_pressure_survives_solution_enumeration(self):
        """Regression: a branch fault whose every small-window solution has
        an unjustifiable state requirement, but whose effect can also be
        latched past the window edge.  The search must report WINDOW (not
        EXHAUSTED) after enumerating those solutions, so the engine grows
        the window instead of unsoundly proving the fault untestable —
        here the 4-frame detection needs no state at all."""
        c = Circuit("window_pressure")
        c.add_input("pi0")
        c.add_gate("g0", GateType.XNOR, ["ff1", "ff1"])
        c.add_gate("g3", GateType.OR, ["pi0", "g0"])
        c.add_gate("g5", GateType.OR, ["ff0", "g0"])
        c.add_gate("ff0", GateType.DFF, ["ff1"])
        c.add_gate("ff1", GateType.DFF, ["g3"])
        c.add_output("g5")
        fault = Fault("ff1", 0, gate="g0", pin=0)
        assert exact_detection_depth(c, fault) == 4
        outcome = run_engine(c, fault)
        assert outcome.status is GenStatus.DETECTED
