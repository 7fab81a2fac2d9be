"""The reachable-state set against a one-state, one-vector-per-step BFS."""

import gc
import itertools
import weakref

import pytest
from hypothesis import given, settings

import repro.atpg.reachable as reachable
from repro.atpg.reachable import SLOT_BUDGET, reachable_states
from repro.circuits import gray_fsm, iscas89, s27
from repro.simulation.compiled import compile_circuit
from repro.simulation.encoding import X, pack_const, unpack
from repro.simulation.logic_sim import FrameSimulator

from ..conftest import random_circuits


def reference_states(cc):
    """Width-1 BFS from all-X: one state and one input vector per step."""
    sim = FrameSimulator(cc, width=1)
    vectors = list(itertools.product([0, 1], repeat=len(cc.pi)))
    start = (X,) * len(cc.ff_out)
    seen, frontier = {start}, [start]
    while frontier:
        found = []
        for state in frontier:
            for vector in vectors:
                sim.reset()
                sim.set_state([pack_const(v, 1) for v in state])
                sim.step([pack_const(v, 1) for v in vector])
                nxt = tuple(unpack(v, 1)[0] for v in sim.get_state())
                if nxt not in seen:
                    seen.add(nxt)
                    found.append(nxt)
        frontier = found
    return seen


class TestAgainstReference:
    @settings(max_examples=40, deadline=None)
    @given(circuit=random_circuits(max_pi=3, max_ff=3, max_gates=10))
    def test_random_circuits(self, circuit):
        cc = compile_circuit(circuit)
        assert reachable_states(cc) == reference_states(cc)

    def test_gray_fsm_known_states(self):
        """All-X, then reset to 00 and cycle 00 -> 10 -> 11 -> 01."""
        cc = compile_circuit(gray_fsm())
        assert [cc.net_names[i] for i in cc.ff_out] == ["s0", "s1"]
        expected = {(X, X), (0, 0), (1, 0), (1, 1), (0, 1)}
        assert reachable_states(cc) == expected == reference_states(cc)

    @pytest.mark.parametrize("name, count", [
        ("s27", 13), ("s298", 288), ("s386", 35),
    ])
    def test_benchmark_circuits(self, name, count):
        cc = compile_circuit(iscas89(name))
        states = reachable_states(cc)
        assert len(states) == count
        assert states == reference_states(cc)


class TestBudget:
    def test_over_budget_gives_none(self):
        # s344's 512 input vectors exceed the budget within a few levels
        assert reachable_states(compile_circuit(iscas89("s344"))) is None

    def test_too_many_inputs_builds_no_simulator(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("simulated past the budget")

        monkeypatch.setattr(reachable, "FrameSimulator", refuse)
        cc = compile_circuit(iscas89("s641"))
        assert 2 ** len(cc.pi) > SLOT_BUDGET
        assert reachable_states(cc) is None


class TestCache:
    def test_built_once_per_compiled_circuit(self, monkeypatch):
        cc = compile_circuit(s27())
        states = reachable_states(cc)
        monkeypatch.setattr(reachable, "_search", None)
        assert reachable_states(cc) is states

    def test_cached_set_keeps_no_circuit_alive(self):
        """Reference counting alone frees the compiled form: the set
        cached on it makes no cycle back to it."""
        cc = compile_circuit(s27())
        reachable_states(cc)
        ref = weakref.ref(cc)
        gc.disable()
        try:
            del cc
            assert ref() is None
        finally:
            gc.enable()
