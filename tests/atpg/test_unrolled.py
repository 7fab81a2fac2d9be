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
    _stuck_mask,
)
from repro.atpg.values import D, DBAR, MASK2, XX, faulty_of, good_of, is_d, make9
from repro.circuit.gates import GateType
from repro.circuit.netlist import Circuit
from repro.circuits import s27, two_stage_pipeline
from repro.faults.model import Fault, full_fault_list
from repro.simulation import codegen
from repro.simulation.compiled import compile_circuit
from repro.simulation.encoding import X, eval_packed, pack_const, unpack
from repro.simulation.fault_sim import injection_for
from repro.simulation.logic_sim import FrameSimulator, _eval_ints

from ..conftest import random_circuits

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
            p1, p0 = _stuck_mask(model.value(frame, stem), model._stuck)
            model.v1[frame][stem] = p1
            model.v0[frame][stem] = p0
        for pos, gate in enumerate(cc.gates):
            out = eval_packed(gate.gtype, model.effective_inputs(frame, pos), MASK2)
            if stem == gate.out and active:
                out = _stuck_mask(out, model._stuck)
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
        assert model.x_path_exists(frontier)
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
    """Each compiled step against both evaluators, over every input word."""

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
        step = _implication(cc).steps[pos]
        scheduled = {(cc.gates[r].level, r) for r in cc.fanout_gates[gate.out]}
        assert len(scheduled) == readers
        for words in itertools.product(NINE, repeat=fanin):
            v1 = [XX[0]] * cc.num_nets
            v0 = [XX[1]] * cc.num_nets
            for i, (p1, p0) in zip(gate.fanin, words):
                v1[i], v0[i] = p1, p0
            want = _eval_ints(gate.code, gate.fanin, v1, v0, MASK2)
            assert want == eval_packed(gtype, list(words), MASK2)
            stale = next(word for word in NINE if word != want)
            v1[gate.out], v0[gate.out] = stale
            for changed in (True, False):  # the second run finds it current
                pending = [set() for _ in range(cc.num_levels + 1)]
                undo = []
                step(v1, v0, pending, undo, 3)
                assert (v1[gate.out], v0[gate.out]) == want, words
                got = {(lvl, r) for lvl, bucket in enumerate(pending)
                       for r in bucket}
                if changed:
                    assert undo == [(3, gate.out, *stale)], words
                    assert got == scheduled, words
                else:
                    assert undo == [] and got == set(), words

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
