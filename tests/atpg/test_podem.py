"""Tests for the PODEM search engine (DETECT and JUSTIFY modes)."""

import gc
import random
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from repro.atpg.podem import Limits, PodemEngine, SearchStatus
from repro.atpg.scoap import cached_testability
from repro.atpg.unrolled import UnrolledModel, _implication
from repro.circuit.gates import CONTROLLING_VALUE, INVERSION, GateType
from repro.circuit.netlist import Circuit
from repro.circuits import (
    REDUNDANT_FAULT,
    gray_fsm,
    redundant_and,
    s27,
    untestable_stem,
)
from repro.circuits.resolve import resolve_circuit
from repro.faults.collapse import collapse_faults
from repro.faults.model import Fault, full_fault_list
from repro.simulation.compiled import CompiledCircuit, compile_circuit
from repro.simulation.encoding import X, pack_const, unpack
from repro.simulation.fault_sim import FaultSimulator

from ..conftest import random_circuits
from .test_unrolled import MODELS, OPS, const_circuit, injection_kind


def limits(backtracks=10_000):
    return Limits(max_backtracks=backtracks)


def reference_minimize(engine, targets, vectors, required):
    """Greedy requirement minimisation, rebuilding the model per trial."""
    cc = engine.cc
    d_inputs = [
        (cc.ff_in[cc.ff_out.index(cc.index[name])], value)
        for name, value in (targets or {}).items()
    ]

    def goal_with(state):
        model = UnrolledModel(cc, engine.fault, engine.model.num_frames)
        for frame, vec in enumerate(vectors):
            for pin, idx in enumerate(cc.pi):
                if vec[pin] != X and model.good(frame, idx) == X:
                    model.assign(frame, idx, vec[pin])
        for name, value in state.items():
            idx = cc.index[name]
            if model.good(0, idx) == X:
                model.assign(0, idx, value)
        if engine.fault is not None:
            return model.detected_at(engine.observe_ppo) is not None
        return all(model.good(0, d) == v for d, v in d_inputs)

    kept = dict(required)
    for name in list(required):
        trial = {k: v for k, v in kept.items() if k != name}
        if goal_with(trial):
            kept = trial
    return kept


def values(model):
    """A copy of a model's value rows."""
    return [list(r) for r in model.v1], [list(r) for r in model.v0]


def check_minimisation(engine, targets=None, count=3, backtracks=10_000):
    """Pin each solution's requirement to the reference; count minimisations.

    A spy wraps the engine's minimiser, which runs on the search model in
    place: every call must leave that model's values exactly as it found
    them.  Returns the number of minimiser calls.
    """
    minimise = engine._minimize_requirement
    calls = 0

    def spy(vectors, required):
        nonlocal calls
        before = values(engine.model)
        kept = minimise(vectors, required)
        assert values(engine.model) == before
        calls += 1
        return kept

    engine._minimize_requirement = spy
    seen = 0
    for sol in engine.solutions(limits(backtracks)):
        # the search model still holds the solution while it is yielded
        raw = engine.model.required_state()
        expected = reference_minimize(engine, targets, sol.vectors, raw)
        assert list(sol.required_state.items()) == list(expected.items())
        seen += 1
        if seen >= count:
            break
    return calls


def later_frame_circuit():
    """y = AND(a, q), z = AND(a, c), q = DFF(y); outputs y and z."""
    c = Circuit("later_frame")
    c.add_input("a")
    c.add_input("c")
    c.add_gate("y", GateType.AND, ["a", "q"])
    c.add_gate("z", GateType.AND, ["a", "c"])
    c.add_gate("q", GateType.DFF, ["y"])
    c.add_output("y")
    c.add_output("z")
    return c


# ----------------------------------------------------------------------
# The engine before its search tables: objective, fill objective,
# backtrace and goal check as they read the model through ``good`` and
# the gate-type dictionaries.  Kept as references for the tables.
def reference_goal(engine):
    if engine.fault is not None:
        return engine.model.detected_at(engine.observe_ppo) is not None
    return all(engine.model.good(0, d) == v for d, v in engine._targets)


def reference_objective(engine):
    model = engine.model
    if engine.fault is None:
        for d_idx, val in engine._targets:
            g = model.good(0, d_idx)
            if g == X:
                return (0, d_idx, val)
            if g != val:
                return None
        return None

    launch = model.launch_frame
    if launch >= model.num_frames:
        engine.window_hit = True
        return None
    if not model.excitation_possible(launch):
        return None
    site = model.site_idx
    if launch:
        g = model.good(launch - 1, site)
        if g == X:
            return (launch - 1, site, engine.fault.stuck)
        if g != engine.fault.stuck:
            return None
    if not model.fault_excited(launch):
        return (launch, site, 1 - engine.fault.stuck)

    frontier = model.d_frontier()
    if not frontier:
        if model.d_reaches_window_edge():
            engine.window_hit = True
        return None
    po_reachable, edge_reachable = model.x_path_info(frontier)
    if engine.observe_ppo and edge_reachable:
        po_reachable = True
    if not po_reachable:
        if edge_reachable or model.d_reaches_window_edge():
            engine.window_hit = True
        return None
    meas = cached_testability(engine.cc)
    for frame, pos in sorted(
        frontier,
        key=lambda fp: (fp[0], meas.co[engine.cc.gates[fp[1]].out]),
    ):
        gate = engine.cc.gates[pos]
        ctrl = CONTROLLING_VALUE.get(gate.gtype)
        want = (1 - ctrl) if ctrl is not None else None
        for src in gate.fanin:
            if model.good(frame, src) == X:
                if want is not None:
                    return (frame, src, want)
                return (
                    frame, src, 0 if meas.cc0[src] <= meas.cc1[src] else 1
                )
    return reference_fill_objective(engine)


def reference_fill_objective(engine):
    model = engine.model
    meas = cached_testability(engine.cc)
    for frame in range(model.num_frames):
        for idx in engine.cc.pi:
            if model.good(frame, idx) == X:
                return (
                    frame, idx, 0 if meas.cc0[idx] <= meas.cc1[idx] else 1
                )
    for idx in engine.cc.ff_out:
        if model.good(0, idx) == X:
            return (0, idx, 0)
    return None


def reference_backtrace(engine, frame, idx, value):
    cc = engine.cc
    model = engine.model
    meas = cached_testability(cc)
    guard = 0
    while True:
        guard += 1
        if guard > 10 * cc.num_nets * model.num_frames:
            return None
        if model.is_leaf(frame, idx):
            if model.good(frame, idx) != X:
                return None
            return (frame, idx), value
        gate_pos = cc.gate_of[idx]
        if gate_pos is None:
            ff_pos = cc.ff_out.index(idx)
            if frame == 0:
                return None
            frame -= 1
            idx = cc.ff_in[ff_pos]
            continue
        gate = cc.gates[gate_pos]
        t = gate.gtype
        inv = INVERSION[t]
        if t in (GateType.CONST0, GateType.CONST1):
            return None
        if t in (GateType.BUF, GateType.NOT, GateType.DFF):
            idx = gate.fanin[0]
            value ^= inv
            continue
        if t in (GateType.XOR, GateType.XNOR):
            parity = inv
            chosen = None
            for src in gate.fanin:
                g = model.good(frame, src)
                if g != X:
                    parity ^= g
                elif chosen is None:
                    chosen = src
            if chosen is None:
                return None
            idx = chosen
            value = value ^ parity
            continue
        ctrl = CONTROLLING_VALUE[t]
        need = value ^ inv
        xs = [src for src in gate.fanin if model.good(frame, src) == X]
        if not xs:
            return None
        if need == ctrl:
            idx = min(xs, key=lambda src: meas.cc(src, ctrl))
            value = ctrl
        else:
            idx = max(xs, key=lambda src: meas.cc(src, 1 - ctrl))
            value = 1 - ctrl


def check_search_steps(engine, ops):
    """Apply ``ops`` to the engine's model, checking the search after each.

    Each op is (leaf choice, 0/1/2): 0 or 1 assigns an X leaf, or releases
    an assigned one to X; 2 undoes the latest step.  Before the first and
    after every step, the objective, its backtrace and the goal verdict
    must equal the references', and so must the backtrace of both values
    from every good-X net of one frame.
    """
    model, cc = engine.model, engine.cc
    leaves = [(f, i) for f in range(model.num_frames) for i in cc.pi]
    leaves += [(0, i) for i in cc.ff_out]
    undos = []
    for step, (choice, value) in enumerate([(0, None)] + list(ops)):
        if value == 2:
            if undos:
                model.unassign(undos.pop())
        elif value is not None:
            leaf = leaves[choice % len(leaves)]
            undos.append(
                model.assign(*leaf, X if model.good(*leaf) != X else value)
            )
        objective = engine._objective()
        assert objective == reference_objective(engine)
        if objective is not None:
            assert engine._backtrace(*objective) == reference_backtrace(
                engine, *objective
            )
        assert engine._goal_reached() == reference_goal(engine)
        frame = (choice + step) % model.num_frames
        for idx in range(cc.num_nets):
            if model.good(frame, idx) == X:
                for want in (0, 1):
                    assert engine._backtrace(frame, idx, want) == (
                        reference_backtrace(engine, frame, idx, want)
                    )


class TestTableDrivenSearch:
    """Objective, backtrace and goal check read the circuit's tables and
    raw value words; they must equal the references above."""

    @settings(max_examples=40, deadline=None)
    @given(
        circuit=random_circuits(),
        ops=st.lists(
            st.tuples(st.integers(0, 63), st.integers(0, 2)),
            min_size=1, max_size=10,
        ),
        offset=st.integers(0, 3),
    )
    def test_every_step_matches_the_reference(self, circuit, ops, offset):
        cc = compile_circuit(circuit)
        for name in MODELS:
            for k, fault in enumerate(full_fault_list(circuit, name)):
                engine = PodemEngine(
                    cc, fault=fault, num_frames=1 + (k + offset) % 3,
                    observe_ppo=bool((k + offset) % 2),
                )
                check_search_steps(engine, ops)
        if circuit.flops:
            targets = {
                ff: (k + offset) % 2 for k, ff in enumerate(circuit.flops)
            }
            check_search_steps(PodemEngine(cc, targets=targets), ops)

    def test_every_injection_kind_on_s27(self):
        circuit = s27()
        cc = compile_circuit(circuit)
        kinds = set()
        for name in MODELS:
            for fault in full_fault_list(circuit, name):
                kinds.add(injection_kind(circuit, fault))
                for frames in (1, 3):
                    engine = PodemEngine(cc, fault=fault, num_frames=frames)
                    check_search_steps(engine, OPS)
        assert kinds == {
            "pi stem", "ff-output stem", "gate-output stem",
            "gate-pin branch", "dff branch",
        }
        for ff in circuit.flops:
            for value in (0, 1):
                check_search_steps(PodemEngine(cc, targets={ff: value}), OPS)

    def test_a_tie_cell_gives_no_leaf(self):
        """The tables answer None for a constant.  The reference looks up
        the gate's inversion first and has none for a tie cell; the search
        never asks, because objectives only name X nets."""
        cc = compile_circuit(const_circuit())
        engine = PodemEngine(cc, fault=Fault("a", 0), num_frames=2)
        zero, y = cc.index["zero"], cc.index["y"]
        for frame, idx in ((0, zero), (1, zero), (1, y)):
            assert engine._backtrace(frame, idx, 1) is None
            with pytest.raises(KeyError):
                reference_backtrace(engine, frame, idx, 1)

    def test_tables_keep_no_circuit_alive(self):
        """Reference counting alone frees the tables with the compiled
        form: nothing in them refers back to it."""
        cc = CompiledCircuit(s27())
        engine = PodemEngine(cc, fault=Fault("G0", 0), num_frames=2)
        engine.run(limits())
        ref = weakref.ref(_implication(cc))
        gc.disable()
        try:
            del engine, cc
            assert ref() is None
        finally:
            gc.enable()


class TestRequirementMinimisation:
    def test_first_solutions_of_every_s27_fault(self):
        cc = compile_circuit(s27())
        minimised = 0
        for fault in collapse_faults(s27()):
            for frames in (1, 2, 3):
                engine = PodemEngine(cc, fault=fault, num_frames=frames)
                minimised += check_minimisation(engine)
        assert minimised  # the minimiser really ran

    def test_later_frame_inputs_are_released_first(self):
        """A detection the solution's vectors do not reach must not count.

        With ``q`` = 1, ``a`` s-a-0 shows at ``y`` in frame 0.  The search
        model also holds ``a`` = ``c`` = 1 in frame 1, where ``z`` detects
        the fault without ``q``; those inputs lie past the solution's one
        vector, so the requirement on ``q`` must stay.
        """
        cc = compile_circuit(later_frame_circuit())
        engine = PodemEngine(cc, fault=Fault("a", 0), num_frames=2)
        model = engine.model
        for frame, name in ((0, "a"), (0, "q"), (1, "a"), (1, "c")):
            model.assign(frame, cc.index[name], 1)
        before = values(model)
        assert engine._minimize_requirement([[1, X]], {"q": 1}) == {"q": 1}
        assert values(model) == before

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_detect_mode_matches_rebuild_reference(self, data):
        circuit = data.draw(random_circuits())
        cc = compile_circuit(circuit)
        model_name = data.draw(st.sampled_from(["stuck_at", "transition"]))
        fault = data.draw(st.sampled_from(full_fault_list(circuit, model_name)))
        engine = PodemEngine(
            cc, fault=fault, num_frames=data.draw(st.integers(1, 3)),
            observe_ppo=data.draw(st.booleans()),
        )
        check_minimisation(engine, count=4, backtracks=200)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_justify_mode_matches_rebuild_reference(self, data):
        circuit = data.draw(random_circuits(max_ff=4).filter(lambda c: c.flops))
        cc = compile_circuit(circuit)
        names = data.draw(
            st.lists(st.sampled_from(circuit.flops), min_size=1, unique=True)
        )
        targets = {name: data.draw(st.integers(0, 1)) for name in names}
        engine = PodemEngine(cc, targets=targets)
        check_minimisation(engine, targets, count=4, backtracks=200)


def check_skips(engine, count=3, backtracks=200):
    """Minimise each solution with every release trial run, then as the
    engine does, skipping the trials its necessity trace predicts.

    Every predicted trial must fail its goal, which keeps its
    requirement, and both runs must keep the same requirement.  Returns
    how many trials the trace predicted.
    """
    minimise = engine._minimize_requirement
    trace = engine._necessary
    predicted = 0

    def spy(vectors, required):
        nonlocal predicted
        traced = []

        def run_every_trial():
            traced.append(trace())
            return set()

        engine._necessary = run_every_trial
        every = minimise(vectors, required)
        del engine._necessary
        kept = minimise(vectors, required)
        assert list(kept.items()) == list(every.items())
        names = {engine.cc.net_names[idx] for idx in traced[0]}
        assert names <= set(every)  # each predicted trial failed
        predicted += len(names)
        return kept

    engine._minimize_requirement = spy
    for _, _solution in zip(range(count), engine.solutions(limits(backtracks))):
        pass
    return predicted


class TestNecessitySkip:
    """Minimisation skips the release trials its trace proves doomed."""

    @pytest.mark.parametrize("name", ["s27", "s298"])
    def test_every_collapsed_fault(self, name):
        circuit = resolve_circuit(name)
        cc = compile_circuit(circuit)
        predicted = 0
        for model in MODELS:
            for fault in collapse_faults(circuit, model):
                for frames in (1, 2, 3):
                    engine = PodemEngine(cc, fault=fault, num_frames=frames)
                    predicted += check_skips(engine, count=2, backtracks=50)
        assert predicted  # the skip fires in DETECT mode

    @pytest.mark.parametrize("name", ["s27", "s298"])
    def test_random_target_cubes(self, name):
        circuit = resolve_circuit(name)
        cc = compile_circuit(circuit)
        rng = random.Random(name)
        predicted = 0
        for _ in range(40):
            cared = rng.sample(circuit.flops, rng.randint(1, len(circuit.flops)))
            targets = {ff: rng.randint(0, 1) for ff in cared}
            predicted += check_skips(PodemEngine(cc, targets=targets))
        assert predicted  # the skip fires in JUSTIFY mode

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_random_circuits(self, data):
        circuit = data.draw(random_circuits())
        cc = compile_circuit(circuit)
        model_name = data.draw(st.sampled_from(MODELS))
        fault = data.draw(st.sampled_from(full_fault_list(circuit, model_name)))
        engine = PodemEngine(
            cc, fault=fault, num_frames=data.draw(st.integers(1, 3)),
            observe_ppo=data.draw(st.booleans()),
        )
        check_skips(engine, count=4, backtracks=200)
        if circuit.flops:
            names = data.draw(
                st.lists(st.sampled_from(circuit.flops), min_size=1, unique=True)
            )
            targets = {name: data.draw(st.integers(0, 1)) for name in names}
            check_skips(PodemEngine(cc, targets=targets), count=4)


class TestDetectMode:
    def test_combinational_detection(self):
        c = Circuit("comb")
        c.add_input("a")
        c.add_input("b")
        c.add_gate("y", GateType.AND, ["a", "b"])
        c.add_output("y")
        cc = compile_circuit(c)
        engine = PodemEngine(cc, fault=Fault("a", 0), num_frames=1)
        sol = engine.run(limits())
        assert sol is not None
        assert sol.vectors[0] == [1, 1]  # a=1 to excite, b=1 to propagate

    def test_every_s27_solution_really_detects(self):
        """Cross-validate PODEM solutions against the fault simulator."""
        circuit = s27()
        cc = compile_circuit(circuit)
        sim = FaultSimulator(cc)
        for fault in collapse_faults(circuit):
            engine = PodemEngine(cc, fault=fault, num_frames=6)
            sol = engine.run(limits())
            if sol is None:
                continue  # may need state justification; engine level only
            if sol.required_state:
                continue  # not a self-contained test
            vectors = [[0 if v == X else v for v in vec] for vec in sol.vectors]
            result = sim.run(vectors, [fault])
            assert fault in result.detected, f"{fault}: bogus solution"

    def test_redundant_fault_exhausts(self):
        cc = compile_circuit(redundant_and())
        engine = PodemEngine(cc, fault=REDUNDANT_FAULT, num_frames=1)
        assert engine.run(limits()) is None
        assert engine.status is SearchStatus.EXHAUSTED

    def test_constant_zero_fault_exhausts(self):
        circuit, fault = untestable_stem()
        cc = compile_circuit(circuit)
        engine = PodemEngine(cc, fault=fault, num_frames=2)
        assert engine.run(limits()) is None
        assert engine.status is SearchStatus.EXHAUSTED

    def test_backtrack_limit_reported(self):
        cc = compile_circuit(redundant_and())
        engine = PodemEngine(cc, fault=REDUNDANT_FAULT, num_frames=1)
        assert engine.run(Limits(max_backtracks=0)) is None
        assert engine.status is SearchStatus.LIMIT

    def test_multiple_solutions_are_distinct_assignments(self):
        c = Circuit("two_ways")
        c.add_input("a")
        c.add_input("b")
        c.add_input("c")
        c.add_gate("or1", GateType.OR, ["b", "c"])
        c.add_gate("y", GateType.AND, ["a", "or1"])
        c.add_output("y")
        cc = compile_circuit(c)
        engine = PodemEngine(cc, fault=Fault("a", 0), num_frames=1)
        sols = []
        for sol in engine.solutions(limits()):
            sols.append(tuple(sol.vectors[0]))
            if len(sols) >= 2:
                break
        assert len(sols) == 2 and sols[0] != sols[1]


class TestFreshEngineStatus:
    """An engine that has not searched yet claims no proof."""

    def test_fresh_detect_and_justify_engines_report_limit(self):
        cc = compile_circuit(s27())
        redundant = compile_circuit(redundant_and())
        for engine in (
            PodemEngine(cc, fault=Fault("G0", 0), num_frames=2),
            PodemEngine(redundant, fault=REDUNDANT_FAULT, num_frames=1),
            PodemEngine(cc, targets={"G7": 1}),
        ):
            # LIMIT proves nothing; EXHAUSTED or WINDOW would claim a proof
            assert engine.status is SearchStatus.LIMIT


class TestJustifyMode:
    def test_single_frame_justify(self):
        cc = compile_circuit(s27())
        # G7's D input is G13 = NOR(G2, G12); G7=1 needs G2=0 and G12=0
        engine = PodemEngine(cc, targets={"G7": 1})
        sol = engine.run(limits())
        assert sol is not None
        vec = sol.vectors[0]
        assert vec[2] == 0  # G2 must be 0

    def test_justify_impossible_value(self):
        c = Circuit("never")
        c.add_input("a")
        c.add_gate("zero", GateType.CONST0, [])
        c.add_gate("q", GateType.DFF, ["zero"])
        c.add_gate("y", GateType.BUF, ["q"])
        c.add_gate("k", GateType.AND, ["a", "y"])
        c.add_output("k")
        cc = compile_circuit(c)
        engine = PodemEngine(cc, targets={"q": 1})
        assert engine.run(limits()) is None
        assert engine.status is SearchStatus.EXHAUSTED

    def test_justify_carries_state_requirement(self):
        cc = compile_circuit(gray_fsm())
        # s1' = s0 (via BUF s0d): requiring s1=1 needs previous s0=1
        engine = PodemEngine(cc, targets={"s1": 1})
        sol = engine.run(limits())
        assert sol is not None
        assert sol.required_state == {"s0": 1}

    def test_mode_arguments_validated(self):
        cc = compile_circuit(s27())
        with pytest.raises(ValueError):
            PodemEngine(cc)  # neither fault nor targets
        with pytest.raises(ValueError):
            PodemEngine(cc, fault=Fault("G0", 0), targets={"G5": 1})
        with pytest.raises(ValueError):
            PodemEngine(cc, targets={"G14": 1})  # not a flip-flop
