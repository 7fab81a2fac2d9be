"""Tests for the unrolled time-frame model."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.atpg import unrolled
from repro.atpg.unrolled import (
    _BASELINE_ATTR,
    UnrolledModel,
    _baseline,
    _implication,
)
from repro.atpg.values import D, DBAR, MASK2, XX, faulty_of, good_of, is_d, make9
from repro.circuit.gates import GateType
from repro.circuit.netlist import Circuit
from repro.circuits import s27, two_stage_pipeline
from repro.circuits.resolve import resolve_circuit
from repro.faults.collapse import collapse_faults
from repro.faults.model import Fault, full_fault_list
from repro.simulation import codegen
from repro.simulation.compiled import compile_circuit
from repro.simulation.encoding import X, eval_packed, pack_const, unpack
from repro.simulation.fault_sim import injection_for
from repro.simulation.logic_sim import FrameSimulator, _eval_ints, apply_stuck

from ..conftest import random_circuits
from .test_regressions import shared_d_circuit

MODELS = ("stuck_at", "transition")


def full_sweep(cc, fault, num_frames):
    """Reference construction: one full injected sweep of every frame.

    This is how models were built before the fault-free baseline was
    cached; a fresh model must hold exactly these rows.
    """
    model = UnrolledModel(cc, fault, num_frames)  # for the injection handles
    model.v1 = [[XX[0]] * cc.num_nets for _ in range(num_frames)]
    model.v0 = [[XX[1]] * cc.num_nets for _ in range(num_frames)]
    stem = model._stem_idx
    for frame in range(num_frames):
        active = frame >= model._inject_from
        if active and stem is not None and cc.is_source(stem):
            p1, p0 = apply_stuck(model.value(frame, stem), model._stuck, 0b10)
            model.v1[frame][stem] = p1
            model.v0[frame][stem] = p0
        for pos, gate in enumerate(cc.gates):
            out = eval_packed(gate.gtype, model.effective_inputs(frame, pos), MASK2)
            if stem == gate.out and active:
                out = apply_stuck(out, model._stuck, 0b10)
            model.v1[frame][gate.out], model.v0[frame][gate.out] = out
        if frame + 1 < num_frames:
            model._latch(frame, [])
    return model.v1, model.v0


def injection_kind(circuit, fault):
    if not fault.is_branch:
        if fault.net in circuit.inputs:
            return "pi stem"
        if fault.net in circuit.flops:
            return "ff-output stem"
        return "gate-output stem"
    if circuit.gates[fault.gate].gtype is GateType.DFF:
        return "dff branch"
    return "gate-pin branch"


def const_circuit():
    """A constant feeding a flip-flop: the all-X baseline is not all X."""
    c = Circuit("const")
    c.add_input("a")
    c.add_gate("zero", GateType.CONST0, [])
    c.add_gate("q", GateType.DFF, ["zero"])
    c.add_gate("y", GateType.BUF, ["q"])
    c.add_gate("k", GateType.AND, ["a", "y"])
    c.add_output("k")
    return c


class TestBasics:
    def test_initial_all_x(self):
        cc = compile_circuit(s27())
        model = UnrolledModel(cc, None, num_frames=2)
        for frame in range(2):
            for i in cc.pi:
                assert model.good(frame, i) == X

    def test_leaves(self):
        cc = compile_circuit(s27())
        model = UnrolledModel(cc, None, num_frames=2)
        pi = cc.pi[0]
        ff = cc.ff_out[0]
        assert model.is_leaf(0, pi) and model.is_leaf(1, pi)
        assert model.is_leaf(0, ff)
        assert not model.is_leaf(1, ff)  # frame-1 state comes from frame 0

    def test_assign_propagates(self):
        cc = compile_circuit(s27())
        model = UnrolledModel(cc, None, num_frames=1)
        # G14 = NOT(G0)
        model.assign(0, cc.index["G0"], 1)
        assert model.good(0, cc.index["G14"]) == 0

    def test_good_decodes_slot_0_and_rejects_the_invalid_encoding(self):
        cc = compile_circuit(s27())
        model = UnrolledModel(cc, None, num_frames=1)
        idx = cc.pi[0]
        for word in NINE:
            model.v1[0][idx], model.v0[0][idx] = word
            assert model.good(0, idx) == good_of(word)
        model.v1[0][idx], model.v0[0][idx] = 0b10, 0b00  # good slot (0,0)
        with pytest.raises(ValueError):
            model.good(0, idx)

    def test_assign_non_leaf_rejected(self):
        cc = compile_circuit(s27())
        model = UnrolledModel(cc, None, num_frames=1)
        with pytest.raises(ValueError):
            model.assign(0, cc.index["G14"], 1)

    def test_frame_boundary_latching(self):
        cc = compile_circuit(two_stage_pipeline())
        model = UnrolledModel(cc, None, num_frames=3)
        model.assign(0, cc.index["a"], 1)
        # f1's frame-1 output equals a's frame-0 value, f2 lags one more
        assert model.good(1, cc.index["f1"]) == 1
        assert model.good(2, cc.index["f2"]) == 1
        assert model.good(1, cc.index["f2"]) == X


class TestUndo:
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_unassign_restores_exact_state(self, data):
        """Undo restores every value; the pending buckets stay empty.

        ``unassign`` touches values only, which is sound because every
        settle drains the buckets it fills: none may hold a gate after
        construction, an assign or an unassign.
        """
        circuit = data.draw(random_circuits(max_pi=3, max_ff=2, max_gates=8))
        cc = compile_circuit(circuit)
        model_name = data.draw(st.sampled_from(MODELS))
        fault = data.draw(
            st.none() | st.sampled_from(full_fault_list(circuit, model_name))
        )
        model = UnrolledModel(cc, fault, num_frames=2)

        def assert_buckets_empty():
            assert not any(bucket for row in model._pending for bucket in row)

        assert_buckets_empty()
        snapshot = ([list(f) for f in model.v1], [list(f) for f in model.v0])
        leaves = [(f, i) for f in range(2) for i in cc.pi]
        leaves += [(0, i) for i in cc.ff_out]
        n = data.draw(st.integers(1, min(4, len(leaves))))
        undos = []
        for k in range(n):
            frame, idx = leaves[data.draw(st.integers(0, len(leaves) - 1))]
            if model.good(frame, idx) != X:
                continue
            undos.append(model.assign(frame, idx, data.draw(st.integers(0, 1))))
            assert_buckets_empty()
        for undo in reversed(undos):
            model.unassign(undo)
            assert_buckets_empty()
        assert model.v1 == snapshot[0]
        assert model.v0 == snapshot[1]


class TestFaultInjection:
    def test_stem_fault_shows_d_when_excited(self):
        cc = compile_circuit(s27())
        model = UnrolledModel(cc, Fault("G0", 0), num_frames=1)
        assert not model.fault_excited(0)
        model.assign(0, cc.index["G0"], 1)
        assert model.fault_excited(0)
        assert is_d(model.value(0, cc.index["G0"]))

    def test_excitation_impossible_when_site_fixed(self):
        cc = compile_circuit(s27())
        model = UnrolledModel(cc, Fault("G0", 1), num_frames=1)
        model.assign(0, cc.index["G0"], 1)
        assert not model.excitation_possible(0)

    def test_fault_present_in_every_frame(self):
        cc = compile_circuit(two_stage_pipeline())
        model = UnrolledModel(cc, Fault("a", 0), num_frames=2)
        model.assign(1, cc.index["a"], 1)
        assert is_d(model.value(1, cc.index["a"]))

    def test_branch_fault_only_affects_reader(self):
        c = Circuit("branch")
        c.add_input("a")
        c.add_gate("y1", GateType.BUF, ["a"])
        c.add_gate("y2", GateType.BUF, ["a"])
        c.add_output("y1")
        c.add_output("y2")
        cc = compile_circuit(c)
        model = UnrolledModel(cc, Fault("a", 0, gate="y1", pin=0), num_frames=1)
        model.assign(0, cc.index["a"], 1)
        assert is_d(model.value(0, cc.index["y1"]))
        assert model.good(0, cc.index["y2"]) == 1
        assert not is_d(model.value(0, cc.index["y2"]))


class TestQueries:
    def test_detection_at_po(self):
        c = Circuit("direct")
        c.add_input("a")
        c.add_gate("y", GateType.BUF, ["a"])
        c.add_output("y")
        cc = compile_circuit(c)
        model = UnrolledModel(cc, Fault("a", 0), num_frames=1)
        assert model.detected_at() is None
        model.assign(0, cc.index["a"], 1)
        assert model.detected_at() == (0, cc.index["y"])

    def test_d_frontier_and_x_path(self):
        c = Circuit("front")
        c.add_input("a")
        c.add_input("b")
        c.add_gate("y", GateType.AND, ["a", "b"])
        c.add_output("y")
        cc = compile_circuit(c)
        model = UnrolledModel(cc, Fault("a", 0), num_frames=1)
        model.assign(0, cc.index["a"], 1)
        frontier = model.d_frontier()
        assert frontier == [(0, cc.gate_of[cc.index["y"]])]
        assert model.x_path_info(frontier)[0]
        # blocking side input kills the frontier
        undo = model.assign(0, cc.index["b"], 0)
        assert model.d_frontier() == []
        model.unassign(undo)
        model.assign(0, cc.index["b"], 1)
        assert model.detected_at() is not None

    def test_window_edge_detection(self):
        cc = compile_circuit(two_stage_pipeline())
        model = UnrolledModel(cc, Fault("a", 0), num_frames=1)
        model.assign(0, cc.index["a"], 1)
        # D sits at f1's D input (net a) — the window is the only obstacle
        assert model.d_reaches_window_edge()

    def test_required_state_extraction(self):
        cc = compile_circuit(s27())
        model = UnrolledModel(cc, None, num_frames=1)
        model.assign(0, cc.index["G5"], 1)
        model.assign(0, cc.index["G7"], 0)
        assert model.required_state() == {"G5": 1, "G7": 0}

    def test_extract_vectors(self):
        cc = compile_circuit(s27())
        model = UnrolledModel(cc, None, num_frames=2)
        model.assign(0, cc.index["G0"], 1)
        model.assign(1, cc.index["G3"], 0)
        vectors = model.extract_vectors(1)
        assert vectors[0][0] == 1 and vectors[1][3] == 0
        assert vectors[0][1] == X


class TestBaselineConstruction:
    """A model copies the cached fault-free rows and settles its injection."""

    def check_all_faults(self, circuit, frames_range=range(1, 5)):
        cc = compile_circuit(circuit)
        kinds = set()
        for model in MODELS:
            for fault in full_fault_list(circuit, model):
                kinds.add(injection_kind(circuit, fault))
                for frames in frames_range:
                    built = UnrolledModel(cc, fault, frames)
                    assert (built.v1, built.v0) == full_sweep(cc, fault, frames), (
                        f"{fault} at {frames} frames"
                    )
        for frames in frames_range:
            built = UnrolledModel(cc, None, frames)
            assert (built.v1, built.v0) == full_sweep(cc, None, frames)
        return kinds

    def test_every_s27_fault_matches_full_sweep(self):
        kinds = self.check_all_faults(s27())
        assert kinds == {
            "pi stem", "ff-output stem", "gate-output stem",
            "gate-pin branch", "dff branch",
        }

    def test_constant_circuit_matches_full_sweep(self):
        self.check_all_faults(const_circuit())

    @settings(max_examples=25, deadline=None)
    @given(circuit=random_circuits(max_pi=3, max_ff=3, max_gates=8))
    def test_random_circuit_faults_match_full_sweep(self, circuit):
        self.check_all_faults(circuit)

    def test_cache_is_keyed_per_circuit_and_window(self):
        first, second = compile_circuit(s27()), compile_circuit(const_circuit())
        for frames in (1, 3):
            UnrolledModel(first, None, frames)
        UnrolledModel(second, Fault("a", 0), 2)
        assert sorted(getattr(first, _BASELINE_ATTR)) == [1, 3]
        assert sorted(getattr(second, _BASELINE_ATTR)) == [2]
        assert _baseline(first, 3) is _baseline(first, 3)
        # a constant latches in frame 1: the rows really differ per window
        q = second.index["q"]
        rows1, rows0 = _baseline(second, 2)
        assert good_of((rows1[0][q], rows0[0][q])) == X
        assert good_of((rows1[1][q], rows0[1][q])) == 0

    def test_cache_survives_models_being_used(self):
        circuit = s27()
        cc = compile_circuit(circuit)
        frames = 3
        fresh = full_sweep(cc, None, frames)
        leaves = [(f, i) for f in range(frames) for i in cc.pi]
        leaves += [(0, i) for i in cc.ff_out]
        for n, fault in enumerate([None] + full_fault_list(circuit)[:20]):
            model = UnrolledModel(cc, fault, frames)
            undos = [
                model.assign(f, i, (n + k) % 2)
                for k, (f, i) in enumerate(leaves[n % 3::2])
            ]
            model.assign(*leaves[0], X)
            for undo in reversed(undos[: len(undos) // 2]):
                model.unassign(undo)
        assert _baseline(cc, frames) == fresh


def simulate(cc, injections, state, vectors):
    """Per-frame scalar value of every net, from the event simulator."""
    sim = FrameSimulator(cc, width=1, injections=injections)
    sim.set_state([pack_const(v, 1) for v in state])
    rows = []
    for vec in vectors:
        sim.apply_inputs([pack_const(v, 1) for v in vec])
        sim.settle()
        rows.append([unpack((sim.v1[i], sim.v0[i]), 1)[0] for i in range(cc.num_nets)])
        sim.clock()
    return rows


class TestAgainstEventSimulator:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_full_assignment_matches_frame_simulator(self, data):
        circuit = data.draw(random_circuits())
        cc = compile_circuit(circuit)
        frames = data.draw(st.integers(1, 3))
        model_name = data.draw(st.sampled_from(MODELS))
        fault = data.draw(st.sampled_from(full_fault_list(circuit, model_name)))
        bits = st.integers(0, 1)
        vectors = [[data.draw(bits) for _ in cc.pi] for _ in range(frames)]
        state = [data.draw(bits) for _ in cc.ff_out]

        model = UnrolledModel(cc, fault, frames)
        for frame, vec in enumerate(vectors):
            for idx, v in zip(cc.pi, vec):
                model.assign(frame, idx, v)
        for idx, v in zip(cc.ff_out, state):
            model.assign(0, idx, v)

        nets = range(cc.num_nets)
        good = simulate(cc, [], state, vectors)
        faulty_plane = [
            [faulty_of(model.value(f, i)) for i in nets] for f in range(frames)
        ]
        for frame in range(frames):
            assert [model.good(frame, i) for i in nets] == good[frame]
        if model_name == "stuck_at":
            assert faulty_plane == simulate(
                cc, [injection_for(cc, fault, 1)], state, vectors
            )
        else:
            # the launch frame is 1: frame 0 carries no fault effect
            assert faulty_plane[0] == good[0]

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_assignment_order_and_releases_do_not_matter(self, data):
        """Shuffled assigns, and extra leaves released to X, change nothing."""
        circuit = data.draw(random_circuits())
        cc = compile_circuit(circuit)
        frames = data.draw(st.integers(1, 3))
        model_name = data.draw(st.sampled_from(MODELS))
        fault = data.draw(
            st.none() | st.sampled_from(full_fault_list(circuit, model_name))
        )
        leaves = [(f, i) for f in range(frames) for i in cc.pi]
        leaves += [(0, i) for i in cc.ff_out]
        values = {leaf: data.draw(st.integers(0, 1)) for leaf in leaves}
        keep = [leaf for leaf in leaves if data.draw(st.booleans())]
        extra = [leaf for leaf in leaves if leaf not in keep and data.draw(st.booleans())]

        reference = UnrolledModel(cc, fault, frames)
        for leaf in keep:
            reference.assign(*leaf, values[leaf])
        model = UnrolledModel(cc, fault, frames)
        for leaf in data.draw(st.permutations(keep + extra)):
            model.assign(*leaf, values[leaf])
        for leaf in data.draw(st.permutations(extra)):
            model.assign(*leaf, X)
        assert model.v1 == reference.v1
        assert model.v0 == reference.v0


#: The nine two-slot (good, faulty) words.
NINE = [make9(g, f) for g in (0, 1, X) for f in (0, 1, X)]

#: Every gate shape a step template is generated for, as (type, fan-in).
#: ``random_circuits`` draws only 2-3-input AND...XNOR plus NOT and BUF.
SHAPES = [
    (gtype, fanin)
    for gtype in (GateType.AND, GateType.NAND, GateType.OR, GateType.NOR,
                  GateType.XOR, GateType.XNOR)
    for fanin in (1, 2, 3, 4)
] + [(GateType.NOT, 1), (GateType.BUF, 1),
     (GateType.CONST0, 0), (GateType.CONST1, 0)]


def step_circuit(gtype, fanin, readers):
    """Gate ``g`` over ``fanin`` inputs, read by ``readers`` (0 or 2) gates.

    The two readers sit on different levels: ``r1 = BUF(g)`` and
    ``r2 = AND(g, r1)``.
    """
    c = Circuit(f"{gtype.value}{fanin}r{readers}")
    ins = [c.add_input(f"i{k}") for k in range(max(fanin, 1))]
    c.add_gate("g", gtype, ins[:fanin])
    if readers:
        c.add_gate("r1", GateType.BUF, ["g"])
        c.add_gate("r2", GateType.AND, ["g", "r1"])
        c.add_output("r2")
    else:
        c.add_output("g")
    return c


class TestStepTemplates:
    """Each compiled step against the evaluators, over every input word."""

    @staticmethod
    def check_steps(cc, cases):
        """Run each ``(step, want_of)`` case on every input word of ``g``.

        A step must write ``want_of(words)``, and log the old word and
        schedule every reader only when that changes the output.
        """
        gate = cc.gates[cc.gate_of[cc.index["g"]]]
        out = gate.out
        scheduled = {(cc.gates[r].level, r) for r in cc.fanout_gates[out]}
        v1 = [XX[0]] * cc.num_nets
        v0 = [XX[1]] * cc.num_nets
        pending = [set() for _ in range(cc.num_levels + 1)]
        undo = []
        for words in itertools.product(NINE, repeat=len(gate.fanin)):
            for i, (p1, p0) in zip(gate.fanin, words):
                v1[i], v0[i] = p1, p0
            for step, want_of in cases:
                want = want_of(words)
                stale = NINE[want == NINE[0]]
                v1[out], v0[out] = stale
                step(v1, v0, pending, undo, 3)
                assert (v1[out], v0[out]) == want, words
                assert undo == [(3, out, *stale)], words
                got = {(lvl, r) for lvl, bucket in enumerate(pending)
                       for r in bucket}
                assert got == scheduled, words
                undo.clear()
                for bucket in pending:
                    bucket.clear()
                step(v1, v0, pending, undo, 3)  # now it finds it current
                assert (v1[out], v0[out]) == want, words
                assert undo == [] and not any(pending), words
        return scheduled

    @pytest.mark.parametrize("readers", (0, 2))
    @pytest.mark.parametrize(
        "gtype, fanin", SHAPES, ids=[f"{t.value}{n}" for t, n in SHAPES]
    )
    def test_step_matches_evaluators_and_logs_changes(
        self, gtype, fanin, readers
    ):
        cc = compile_circuit(step_circuit(gtype, fanin, readers))
        pos = cc.gate_of[cc.index["g"]]
        gate = cc.gates[pos]

        def want_of(words):
            v1 = [p1 for p1, _ in words]
            v0 = [p0 for _, p0 in words]
            want = _eval_ints(gate.code, range(fanin), v1, v0, MASK2)
            assert want == eval_packed(gtype, list(words), MASK2)
            return want

        scheduled = self.check_steps(cc, [(_implication(cc).steps[pos], want_of)])
        assert len(scheduled) == readers

    @pytest.mark.parametrize("readers", (0, 2))
    @pytest.mark.parametrize(
        "gtype, fanin", SHAPES, ids=[f"{t.value}{n}" for t, n in SHAPES]
    )
    def test_site_steps_force_each_pin_and_the_output(
        self, gtype, fanin, readers
    ):
        """A fault-site step equals the evaluator over its forced words."""
        cc = compile_circuit(step_circuit(gtype, fanin, readers))
        pos = cc.gate_of[cc.index["g"]]
        cases = []
        for pin in [*range(fanin), unrolled._OUT]:
            for stuck in (0, 1):
                def want_of(words, pin=pin, stuck=stuck):
                    words = list(words)
                    if pin == unrolled._OUT:
                        return apply_stuck(
                            eval_packed(gtype, words, MASK2), stuck, 0b10
                        )
                    words[pin] = apply_stuck(words[pin], stuck, 0b10)
                    return eval_packed(gtype, words, MASK2)

                cases.append((unrolled._step(cc, pos, pin, stuck), want_of))
        self.check_steps(cc, cases)

    def test_templates_grow_with_shapes_not_faults(self, monkeypatch):
        """Rebuilding every collapsed s298 fault's model compiles nothing.

        A fault-site step's template is keyed by the gate shape and the
        injection (pin or output, stuck value), never by the fault.
        """
        monkeypatch.setattr(unrolled, "_TEMPLATES", {})
        circuit = resolve_circuit("s298")
        cc = compile_circuit(circuit)
        faults = [f for name in MODELS for f in collapse_faults(circuit, name)]

        def build_every_model():
            for fault in faults:
                UnrolledModel(cc, fault, num_frames=2)
            return dict(unrolled._TEMPLATES)

        first = build_every_model()
        assert len(first) < len(faults) / 4
        assert build_every_model() == first

    def test_steps_compile_no_kernels(self, monkeypatch):
        """Fresh templates and steps leave the kernel counters alone."""
        monkeypatch.setattr(unrolled, "_TEMPLATES", {})
        before = dict(codegen.compile_stats())
        circuit = s27()
        cc = compile_circuit(circuit)
        for fault in (None, Fault("G0", 0), full_fault_list(circuit)[-1]):
            model = UnrolledModel(cc, fault, num_frames=2)
            for frame in range(2):
                for idx in cc.pi:
                    model.assign(frame, idx, frame)
            for idx in cc.ff_out:
                model.assign(0, idx, 1)
        assert unrolled._TEMPLATES  # the models compiled their templates
        assert codegen.compile_stats() == before


# ----------------------------------------------------------------------
def scan_frontier(model):
    """Reference D-frontier: the scan of every gate of every frame that
    ``UnrolledModel.d_frontier`` replaced by a walk of the D region."""
    frontier = []
    pin_gate = model._pin_gate
    for frame in range(model.num_frames):
        v1, v0 = model.v1[frame], model.v0[frame]
        for pos, gate in enumerate(model.cc.gates):
            out = gate.out
            if not (v1[out] & v0[out]):  # fully known output: not frontier
                continue
            if pos == pin_gate:
                if any(is_d(v) for v in model.effective_inputs(frame, pos)):
                    frontier.append((frame, pos))
                continue
            for i in gate.fanin:
                a1, a0 = v1[i], v0[i]
                if (a1 ^ a0) == MASK2 and (a1 & 1) != (a1 >> 1):
                    frontier.append((frame, pos))
                    break
    return frontier


def walk_ops(model, ops):
    """Apply ``ops`` and check ``d_frontier`` against the scan after each.

    Each op is (leaf choice, 0/1/2): 0 or 1 assigns an X leaf, or
    releases an assigned one to X; 2 unassigns the latest step.
    Returns how many checks saw a non-empty frontier.
    """
    cc = model.cc
    leaves = [(f, i) for f in range(model.num_frames) for i in cc.pi]
    leaves += [(0, i) for i in cc.ff_out]
    undos = []
    assert model.d_frontier() == scan_frontier(model)
    nonempty = 0
    for choice, value in ops:
        if value == 2:
            if not undos:
                continue
            model.unassign(undos.pop())
        else:
            leaf = leaves[choice % len(leaves)]
            undos.append(model.assign(*leaf, X if model.good(*leaf) != X else value))
        frontier = model.d_frontier()
        assert frontier == scan_frontier(model), (str(model.fault), model.num_frames)
        nonempty += bool(frontier)
    return nonempty


#: a fixed op sequence for the named cases
OPS = [(k * 7 + 3, (k * 5) % 3) for k in range(24)]


def pin_force_circuit():
    """g = AND(q, a), q = DFF(NOT(g)), output y = BUF(q).

    With g's pin 0 stuck-at-1 and q = 0, a = 1 in frame 0, the forced pin
    makes g a D̄ and q a D in frame 1, where the force turns that D back
    into a 1: g's source holds a D, yet g sees none.
    """
    c = Circuit("pin_force")
    c.add_input("a")
    c.add_gate("g", GateType.AND, ["q", "a"])
    c.add_gate("n", GateType.NOT, ["g"])
    c.add_gate("q", GateType.DFF, ["n"])
    c.add_gate("y", GateType.BUF, ["q"])
    c.add_output("y")
    return c


class TestDFrontierWalk:
    """``d_frontier`` walks the D region and must equal the scan."""

    @settings(max_examples=30, deadline=None)
    @given(
        circuit=random_circuits(),
        ops=st.lists(
            st.tuples(st.integers(0, 63), st.integers(0, 2)),
            min_size=1, max_size=12,
        ),
        offset=st.integers(0, 3),
    )
    def test_walk_equals_the_scan_after_every_step(self, circuit, ops, offset):
        cc = compile_circuit(circuit)
        for name in MODELS:
            for k, fault in enumerate(collapse_faults(circuit, name)):
                model = UnrolledModel(cc, fault, 1 + (k + offset) % 4)
                walk_ops(model, ops)

    @pytest.mark.parametrize(
        "kind", ["pi stem", "ff-output stem", "gate-output stem"]
    )
    def test_stems(self, kind):
        circuit = s27()
        cc = compile_circuit(circuit)
        faults = [
            f for name in MODELS for f in full_fault_list(circuit, name)
            if injection_kind(circuit, f) == kind
        ]
        assert faults
        nonempty = sum(
            walk_ops(UnrolledModel(cc, fault, frames), OPS)
            for fault in faults for frames in range(1, 5)
        )
        assert nonempty

    def test_a_pin_force_removes_the_d_on_its_source(self):
        cc = compile_circuit(pin_force_circuit())
        q, a, g = cc.index["q"], cc.index["a"], cc.index["g"]
        g_pos = cc.gate_of[g]
        model = UnrolledModel(cc, Fault("q", 1, gate="g", pin=0), num_frames=2)
        model.assign(0, q, 0)
        # the forced pin reads a D̄ while its source holds none
        assert not is_d(model.value(0, q))
        assert model.d_frontier() == scan_frontier(model) == [(0, g_pos)]
        model.assign(0, a, 1)
        # frame 1: a D on the source, none through the force
        assert is_d(model.value(1, q))
        assert good_of(model.value(1, g)) == X
        assert (1, g_pos) not in model.d_frontier()
        assert model.d_frontier() == scan_frontier(model)

    def test_a_flip_flop_d_pin_fault(self):
        cc = compile_circuit(shared_d_circuit())
        g0, g3 = cc.gate_of[cc.index["g0"]], cc.gate_of[cc.index["g3"]]
        model = UnrolledModel(cc, Fault("g3", 0, gate="ff0", pin=0), num_frames=3)
        model.assign(0, cc.index["pi0"], 0)
        # only ff0 latches the stuck value: a D from frame 1 on
        assert is_d(model.value(1, cc.index["ff0"]))
        assert not is_d(model.value(1, cc.index["ff1"]))
        assert model.d_frontier() == scan_frontier(model) == sorted([(1, g0), (1, g3)])
        assert walk_ops(model, OPS)

    def test_a_transition_fault_launched_in_frame_1(self):
        circuit = s27()
        cc = compile_circuit(circuit)
        nonempty = 0
        for fault in collapse_faults(circuit, "transition"):
            for frames in (2, 3, 4):
                model = UnrolledModel(cc, fault, frames)
                assert model.launch_frame == 1
                nonempty += walk_ops(model, OPS)
                assert all(frame >= 1 for frame, _ in model.d_frontier())
        assert nonempty

    def test_a_d_input_net_feeding_two_flip_flops(self):
        cc = compile_circuit(shared_d_circuit())
        g0 = cc.gate_of[cc.index["g0"]]
        model = UnrolledModel(cc, Fault("ff0", 0, gate="g3", pin=1), num_frames=2)
        model.assign(0, cc.index["ff0"], 1)
        model.assign(0, cc.index["pi0"], 1)
        # g3 latches a D̄ into ff0 and ff1; only ff0 is read
        assert is_d(model.value(1, cc.index["ff0"]))
        assert is_d(model.value(1, cc.index["ff1"]))
        assert model.d_frontier() == scan_frontier(model) == [(1, g0)]
        assert walk_ops(model, OPS)
