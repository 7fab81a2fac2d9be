"""Tests for the SCOAP-style testability measures."""

import dataclasses
import gc
import weakref

import pytest

from repro.atpg import podem, scoap
from repro.atpg.justify import justify_state
from repro.atpg.podem import Limits, PodemEngine
from repro.atpg.scoap import HARD, compute_testability, cached_testability
from repro.circuit.gates import GateType
from repro.circuit.netlist import Circuit
from repro.circuits import iscas89, s27
from repro.faults.collapse import collapse_faults
from repro.simulation.compiled import CompiledCircuit, compile_circuit


def measures(circuit):
    cc = compile_circuit(circuit)
    return cc, compute_testability(cc)


class TestControllability:
    def test_primary_inputs_cost_one(self):
        cc, m = measures(s27())
        for i in cc.pi:
            assert m.cc0[i] == 1 and m.cc1[i] == 1

    def test_ppi_cost_applied(self):
        cc, m = measures(s27())
        for i in cc.ff_out:
            assert m.cc0[i] == 50 and m.cc1[i] == 50

    def test_and_gate_formulas(self):
        c = Circuit("and")
        c.add_input("a")
        c.add_input("b")
        c.add_gate("y", GateType.AND, ["a", "b"])
        c.add_output("y")
        cc, m = measures(c)
        y = cc.index["y"]
        assert m.cc0[y] == 2  # min(1, 1) + 1
        assert m.cc1[y] == 3  # 1 + 1 + 1

    def test_xor_parity_fold(self):
        c = Circuit("xor")
        c.add_input("a")
        c.add_input("b")
        c.add_gate("y", GateType.XOR, ["a", "b"])
        c.add_output("y")
        cc, m = measures(c)
        y = cc.index["y"]
        assert m.cc0[y] == 3  # both 0 (1+1) or both 1 (1+1), +1
        assert m.cc1[y] == 3

    def test_constants(self):
        c = Circuit("const")
        c.add_input("a")
        c.add_gate("one", GateType.CONST1, [])
        c.add_gate("y", GateType.AND, ["a", "one"])
        c.add_output("y")
        cc, m = measures(c)
        one = cc.index["one"]
        assert m.cc1[one] == 0
        assert m.cc0[one] >= HARD

    def test_deeper_logic_costs_more(self):
        c = Circuit("chainy")
        c.add_input("a")
        prev = "a"
        costs = []
        cc0_prev = None
        for i in range(4):
            c.add_gate(f"n{i}", GateType.BUF, [prev])
            prev = f"n{i}"
        c.add_output(prev)
        cc, m = measures(c)
        chain = [cc.index[f"n{i}"] for i in range(4)]
        assert m.cc1[chain[0]] < m.cc1[chain[1]] < m.cc1[chain[3]]


class TestObservability:
    def test_po_cost_zero(self):
        cc, m = measures(s27())
        for i in cc.po:
            assert m.co[i] == 0

    def test_ppo_cost(self):
        c = Circuit("ppo")
        c.add_input("a")
        c.add_gate("q", GateType.DFF, ["a"])
        c.add_gate("y", GateType.BUF, ["q"])
        c.add_output("y")
        cc, m = measures(c)
        assert m.co[cc.index["a"]] == 30  # observed only through the D pin

    def test_side_input_cost_added(self):
        c = Circuit("side")
        c.add_input("a")
        c.add_input("b")
        c.add_gate("y", GateType.AND, ["a", "b"])
        c.add_output("y")
        cc, m = measures(c)
        # observing a requires setting b=1 (cc1[b]=1), plus depth 1
        assert m.co[cc.index["a"]] == 2

    def test_every_s27_net_is_observable(self):
        cc, m = measures(s27())
        assert all(m.co[i] < HARD for i in range(cc.num_nets))

    def test_cc_accessor(self):
        cc, m = measures(s27())
        i = cc.pi[0]
        assert m.cc(i, 0) == m.cc0[i]
        assert m.cc(i, 1) == m.cc1[i]


class TestHandComputedCircuit:
    """Pin every CC0/CC1/CO value of one crafted circuit by hand.

    The circuit mixes reconvergence, an inverter, and a flip-flop so all
    three measures exercise their interesting terms::

        g1 = AND(a, b)        # feeds both g2 and the flip-flop
        g2 = OR(g1, c)
        y  = NOT(g2)          # primary output
        d  = DFF(g1)          # d is a PPI, g1 is a PPO
        z  = AND(d, c)        # primary output
    """

    def build(self):
        c = Circuit("crafted")
        for name in ("a", "b", "c"):
            c.add_input(name)
        c.add_gate("g1", GateType.AND, ["a", "b"])
        c.add_gate("g2", GateType.OR, ["g1", "c"])
        c.add_gate("y", GateType.NOT, ["g2"])
        c.add_gate("d", GateType.DFF, ["g1"])
        c.add_gate("z", GateType.AND, ["d", "c"])
        c.add_output("y")
        c.add_output("z")
        return measures(c)

    def test_controllability_pins(self):
        cc, m = self.build()
        idx = cc.index
        for name in ("a", "b", "c"):
            assert m.cc0[idx[name]] == 1 and m.cc1[idx[name]] == 1
        # flip-flop output: flat ppi_cost both ways
        assert (m.cc0[idx["d"]], m.cc1[idx["d"]]) == (50, 50)
        # g1 = AND(a, b): cc0 = min(1,1)+1, cc1 = 1+1+1
        assert (m.cc0[idx["g1"]], m.cc1[idx["g1"]]) == (2, 3)
        # g2 = OR(g1, c): cc0 = 2+1+1, cc1 = min(3,1)+1
        assert (m.cc0[idx["g2"]], m.cc1[idx["g2"]]) == (4, 2)
        # y = NOT(g2): swaps its input's costs, +1 depth
        assert (m.cc0[idx["y"]], m.cc1[idx["y"]]) == (3, 5)
        # z = AND(d, c): cc0 = min(50,1)+1, cc1 = 50+1+1
        assert (m.cc0[idx["z"]], m.cc1[idx["z"]]) == (2, 52)

    def test_observability_pins(self):
        cc, m = self.build()
        idx = cc.index
        assert m.co[idx["y"]] == 0 and m.co[idx["z"]] == 0
        # g2 observed through the inverter y
        assert m.co[idx["g2"]] == 1
        # g1: min(ppo_cost=30 into the DFF,
        #         co(g2)+1+cc0(c)=1+1+1 through the OR)
        assert m.co[idx["g1"]] == 3
        # c: min(through g2 with g1=0: 1+1+2,
        #        through z with d=1: 0+1+50)
        assert m.co[idx["c"]] == 4
        # d: through z with c=1
        assert m.co[idx["d"]] == 2
        # a and b: through g1 with the sibling input held at 1
        assert m.co[idx["a"]] == 5
        assert m.co[idx["b"]] == 5


class TestCache:
    def test_engines_and_justification_read_one_object(self, monkeypatch):
        """Two engines and a justification on one compiled circuit, none
        handed SCOAP, compute it once and read the same object."""
        computed, read = [], []
        real_compute = scoap.compute_testability

        def compute(cc):
            computed.append(real_compute(cc))
            return computed[-1]

        def reader(cc):
            read.append(cached_testability(cc))
            return read[-1]

        monkeypatch.setattr(scoap, "compute_testability", compute)
        monkeypatch.setattr(podem, "cached_testability", reader)
        cc = CompiledCircuit(iscas89("s298"))  # a fresh form, cache empty
        for fault in collapse_faults(cc.circuit)[:2]:
            PodemEngine(cc, fault=fault, num_frames=2).run(Limits(20))
        justify_state(cc, {"ffr11": 0, "ffc3": 1}, max_depth=2,
                      limits=Limits(20))
        assert len(computed) == 1
        assert len(read) > 2 and all(m is computed[0] for m in read)

    def test_cached_measures_keep_no_circuit_alive(self):
        """Reference counting alone frees the measures with the compiled
        form: nothing cached on it refers back to it."""
        cc = compile_circuit(s27())
        ref = weakref.ref(cached_testability(cc))
        gc.disable()
        try:
            del cc
            assert ref() is None
        finally:
            gc.enable()

    def test_shared_measures_cannot_change(self):
        m = cached_testability(compile_circuit(s27()))
        with pytest.raises(TypeError):
            m.cc0[0] = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            m.co = ()
