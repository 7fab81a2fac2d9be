"""Tests for environment-imposed input constraints (Section VI)."""

import random

import pytest

from repro.atpg.constraints import UNCONSTRAINED, InputConstraints
from repro.atpg.context import AtpgContext
from repro.atpg.justify import justify_state
from repro.atpg.podem import Limits, PodemEngine, SearchStatus
from repro.circuits import s27
from repro.faults.model import Fault
from repro.ga.justification import GAJustifyParams, GAStateJustifier
from repro.hybrid import HybridTestGenerator, gahitec_schedule
from repro.simulation.compiled import compile_circuit
from repro.simulation.encoding import X


class TestConstraintObject:
    def test_validation(self):
        with pytest.raises(ValueError):
            InputConstraints(fixed={"a": 2})
        with pytest.raises(ValueError):
            InputConstraints(fixed={"a": 1}, hold={"a"})
        InputConstraints(fixed={"G0": 1}).validate(s27())
        with pytest.raises(ValueError):
            InputConstraints(fixed={"nope": 1}).validate(s27())

    def test_trivial(self):
        assert UNCONSTRAINED.is_trivial
        assert not InputConstraints(fixed={"G0": 0}).is_trivial

    def test_satisfied_by_fixed(self):
        c = s27()
        cons = InputConstraints(fixed={"G0": 1})
        assert cons.satisfied_by(c, [[1, 0, 0, 0], [1, 1, 1, 1]])
        assert not cons.satisfied_by(c, [[1, 0, 0, 0], [0, 1, 1, 1]])

    def test_satisfied_by_hold(self):
        c = s27()
        cons = InputConstraints(hold={"G1"})
        assert cons.satisfied_by(c, [[0, 1, 0, 0], [1, 1, 1, 1]])
        assert not cons.satisfied_by(c, [[0, 1, 0, 0], [1, 0, 1, 1]])

    def test_apply_to_vectors(self):
        c = s27()
        cons = InputConstraints(fixed={"G0": 1}, hold={"G1"})
        vectors = [[0, 0, 0, 0], [0, 1, 1, 1]]
        cons.apply_to_vectors(c, vectors)
        assert [v[0] for v in vectors] == [1, 1]
        assert len({v[1] for v in vectors}) == 1
        assert cons.satisfied_by(c, vectors)


class TestPodemWithConstraints:
    def test_fixed_pin_preassigned(self):
        cc = compile_circuit(s27())
        cons = InputConstraints(fixed={"G0": 0})
        engine = PodemEngine(cc, fault=Fault("G5", 0), num_frames=4,
                             constraints=cons)
        sol = engine.run(Limits(10_000))
        if sol is not None:
            for vec in sol.vectors:
                assert vec[0] in (0, X)

    def test_fixed_pin_can_make_faults_unexcitable(self):
        cc = compile_circuit(s27())
        # G0 fixed to 1: the fault G0 s-a-1 can never be excited
        cons = InputConstraints(fixed={"G0": 1})
        engine = PodemEngine(cc, fault=Fault("G0", 1), num_frames=3,
                             constraints=cons)
        assert engine.run(Limits(10_000)) is None
        assert engine.status is SearchStatus.EXHAUSTED

    def test_hold_pin_mirrors_across_frames(self):
        cc = compile_circuit(s27())
        cons = InputConstraints(hold={"G0"})
        engine = PodemEngine(cc, fault=Fault("G8", 0), num_frames=4,
                             constraints=cons)
        sol = engine.run(Limits(10_000))
        assert sol is not None
        values = {vec[0] for vec in sol.vectors if vec[0] != X}
        assert len(values) <= 1

    def test_deterministic_justification_respects_fixed(self):
        cc = compile_circuit(s27())
        cons = InputConstraints(fixed={"G2": 1})
        # G7 <- G13 = NOR(G2, G12): with G2 forced to 1, G7=1 is impossible
        res = justify_state(cc, {"G7": 1}, max_depth=6,
                            limits=Limits(20_000), constraints=cons)
        assert not res.success


class TestGAWithConstraints:
    def test_decoded_sequences_satisfy_constraints(self):
        circuit = s27()
        cons = InputConstraints(fixed={"G3": 0}, hold={"G1"})
        j = GAStateJustifier(AtpgContext(circuit, constraints=cons),
                             rng=random.Random(0))
        for genome in (0, 0xFFFF_FFFF, 0x1234_5678):
            vectors = j.decode(genome, seq_len=4, n_vectors=4)
            assert cons.satisfied_by(circuit, vectors)

    def test_justification_result_satisfies_constraints(self):
        circuit = s27()
        cons = InputConstraints(hold={"G0"})
        j = GAStateJustifier(AtpgContext(circuit, constraints=cons),
                             rng=random.Random(1))
        res = j.justify({"G5": 0}, GAJustifyParams(seq_len=6,
                                                   population_size=32))
        if res.success and res.vectors:
            assert cons.satisfied_by(circuit, res.vectors)


class TestDriverWithConstraints:
    def test_all_emitted_vectors_satisfy_constraints(self):
        cons = InputConstraints(fixed={"G3": 0})
        driver = HybridTestGenerator(s27(), seed=1, constraints=cons)
        result = driver.run(
            gahitec_schedule(x=12, time_scale=None, backtrack_base=100)
        )
        assert result.test_set, "constrained run should still find tests"
        assert cons.satisfied_by(s27(), result.test_set)

    def test_constraints_reduce_coverage(self):
        """Tying a pin makes some faults untestable in-system."""
        free = HybridTestGenerator(s27(), seed=1).run(
            gahitec_schedule(x=12, time_scale=None, backtrack_base=100)
        )
        cons = InputConstraints(fixed={"G0": 0})
        tied = HybridTestGenerator(s27(), seed=1, constraints=cons).run(
            gahitec_schedule(x=12, time_scale=None, backtrack_base=100)
        )
        assert len(tied.detected) < len(free.detected)
        # e.g. G0 s-a-0 itself is now undetectable (never excited)
        assert all(f.net != "G0" or f.stuck != 0 for f in tied.detected)

    def test_unknown_constraint_pin_rejected(self):
        with pytest.raises(ValueError):
            HybridTestGenerator(
                s27(), constraints=InputConstraints(fixed={"zz": 1})
            )
