"""Tests for genetic state justification."""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.atpg.constraints import InputConstraints
from repro.atpg.context import AtpgContext
from repro.atpg.justify import JustifyStatus
from repro.circuits import counter, gray_fsm, s27, two_stage_pipeline
from repro.faults.model import Fault, full_fault_list
from repro.ga.justification import (
    GAJustifyParams,
    GAStateJustifier,
    _SequenceEvaluator,
)
from repro.simulation.compiled import compile_circuit
from repro.simulation.encoding import X, full_mask, pack_const, unpack
from repro.simulation.fault_sim import injection_for
from repro.simulation.logic_sim import FrameSimulator, make_simulator

from ..conftest import random_circuits


def verify(circuit, required, vectors, start_state=None, fault=None):
    """Check the sequence really produces the required state."""
    cc = compile_circuit(circuit)
    injections = [injection_for(cc, fault, 1)] if fault else []
    sim = FrameSimulator(cc, width=1, injections=injections)
    if start_state is not None and not fault:
        sim.set_state([pack_const(v, 1) for v in start_state])
    for vec in vectors:
        sim.step([pack_const(v, 1) for v in vec])
    state = dict(zip(circuit.flops, sim.get_state()))
    for net, want in required.items():
        assert unpack(state[net], 1)[0] == want


class TestJustify:
    def test_pipeline_state(self):
        circuit = two_stage_pipeline()
        j = GAStateJustifier(AtpgContext(circuit), rng=random.Random(0))
        res = j.justify({"f1": 1, "f2": 0},
                        GAJustifyParams(seq_len=4, population_size=16))
        assert res.success
        verify(circuit, {"f1": 1, "f2": 0}, res.vectors)
        verify(circuit, {"f1": 1, "f2": 0}, res.vectors, fault=None)

    def test_counter_state(self):
        circuit = counter(3)
        j = GAStateJustifier(AtpgContext(circuit), rng=random.Random(1))
        required = {"q0": 1, "q1": 1, "q2": 0}
        res = j.justify(
            required,
            GAJustifyParams(seq_len=8, population_size=64, generations=8),
        )
        assert res.success
        verify(circuit, required, res.vectors)

    def test_gray_fsm_state(self):
        circuit = gray_fsm()
        j = GAStateJustifier(AtpgContext(circuit), rng=random.Random(2))
        required = {"s0": 1, "s1": 1}
        res = j.justify(
            required, GAJustifyParams(seq_len=6, population_size=32)
        )
        assert res.success
        verify(circuit, required, res.vectors)

    def test_failure_is_bounded_not_exhausted(self):
        """A GA can never prove unjustifiability."""
        circuit = counter(8)
        j = GAStateJustifier(AtpgContext(circuit), rng=random.Random(3))
        # counting to 255 within 2 vectors is impossible
        required = {f"q{i}": 1 for i in range(8)}
        res = j.justify(
            required, GAJustifyParams(seq_len=2, population_size=8,
                                      generations=1),
        )
        assert not res.success
        assert res.status is JustifyStatus.BOUNDED

    def test_early_exit_shortens_sequence(self):
        """The coded length is an upper bound, not the returned length."""
        circuit = two_stage_pipeline()
        j = GAStateJustifier(AtpgContext(circuit), rng=random.Random(4))
        res = j.justify({"f1": 1}, GAJustifyParams(seq_len=16,
                                                   population_size=32))
        assert res.success
        assert len(res.vectors) < 16

    def test_uses_current_good_state(self):
        """Starting from a matching state needs fewer (or zero) vectors."""
        circuit = counter(3)
        j = GAStateJustifier(AtpgContext(circuit), rng=random.Random(5))
        required = {"q0": 1, "q1": 1}
        # current state already has q0=q1=1: with the fault-free default
        # requirement the faulty circuit must still be driven there, so a
        # sequence is still needed — but it must exist and verify from the
        # given start state in the good circuit.
        res = j.justify(
            required,
            GAJustifyParams(seq_len=8, population_size=64, generations=8),
            current_good_state=[1, 1, 0],
        )
        assert res.success
        verify(circuit, required, res.vectors, start_state=[1, 1, 0])

    def test_fault_injected_in_faulty_circuit(self):
        """With the fault present, the faulty state must also match."""
        circuit = two_stage_pipeline()
        fault = Fault("a", 0)
        j = GAStateJustifier(AtpgContext(circuit), rng=random.Random(6))
        # requiring f1=1 in BOTH circuits is impossible: faulty a is stuck 0
        res = j.justify(
            {"f1": 1},
            GAJustifyParams(seq_len=8, population_size=32, generations=4),
            fault=fault,
        )
        assert not res.success

    def test_fitness_weights_configurable(self):
        params = GAJustifyParams(good_weight=0.5, faulty_weight=0.5)
        assert params.good_weight == 0.5

    def test_decode_layout(self):
        circuit = s27()  # 4 PIs
        j = GAStateJustifier(AtpgContext(circuit))
        genome = 0b1010_0110  # vector0 = 0110, vector1 = 1010 (LSB first)
        vectors = j.decode(genome, seq_len=2, n_vectors=2)
        assert vectors[0] == [0, 1, 1, 0]
        assert vectors[1] == [0, 1, 0, 1]

    def test_reproducible(self):
        def run(seed):
            j = GAStateJustifier(AtpgContext(counter(3)), rng=random.Random(seed))
            return j.justify(
                {"q0": 1}, GAJustifyParams(seq_len=4, population_size=16)
            ).vectors

        assert run(7) == run(7)


class TestBackend:
    def test_fitness_defaults_to_codegen(self):
        assert GAStateJustifier(AtpgContext(s27())).backend == "codegen"


class _ReferenceEvaluator:
    """The per-slot evaluator the bit-parallel one must match exactly.

    Two fresh event simulators per batch, the genome bits gathered per
    frame, pin and slot, and the match counts taken slot by slot on every
    frame.
    """

    def __init__(self, justifier, params, fault, required_good,
                 required_faulty, start_good):
        self.j = justifier
        self.params = params
        self.fault = fault
        self.start_good = start_good
        cc = justifier.cc
        self.req_good = [X] * justifier.n_ff
        for name, val in required_good.items():
            self.req_good[cc.ff_out.index(cc.index[name])] = val
        self.req_faulty = [X] * justifier.n_ff
        for name, val in required_faulty.items():
            self.req_faulty[cc.ff_out.index(cc.index[name])] = val

    def evaluate(self, genomes):
        fitnesses = []
        for start in range(0, len(genomes), self.params.word_width):
            batch = genomes[start : start + self.params.word_width]
            scores, payload = self._evaluate_batch(batch)
            if payload is not None:
                fitnesses.extend(scores)
                fitnesses.extend([0.0] * (len(genomes) - len(fitnesses)))
                return fitnesses, payload
            fitnesses.extend(scores)
        return fitnesses, None

    def _evaluate_batch(self, batch):
        j = self.j
        cc = j.cc
        w = len(batch)
        mask = full_mask(w)
        good_sim = make_simulator(cc, width=w)
        good_sim.set_state([pack_const(v, w) for v in self.start_good])
        injections = (
            [injection_for(cc, self.fault, mask)] if self.fault else []
        )
        faulty_sim = make_simulator(cc, width=w, injections=injections)
        seq_len = max(1, self.params.seq_len)
        n_pi = j.n_pi
        fixed = j._fixed_pins
        hold = j._hold_pins
        for v in range(seq_len):
            vector = []
            base = v * n_pi
            for pin in range(n_pi):
                if pin in fixed:
                    vector.append(pack_const(fixed[pin], w))
                    continue
                bit = pin if pin in hold else base + pin
                p1 = 0
                for slot, genome in enumerate(batch):
                    p1 |= ((genome >> bit) & 1) << slot
                vector.append((p1, (~p1) & mask))
            good_sim.step(vector)
            faulty_sim.step(vector)
            good_match = self._match_counts(good_sim.get_state(), self.req_good, w)
            faulty_match = self._match_counts(
                faulty_sim.get_state(), self.req_faulty, w
            )
            for slot in range(w):
                if good_match[slot] == j.n_ff and faulty_match[slot] == j.n_ff:
                    return [0.0] * w, j.decode(batch[slot], seq_len, v + 1)
        fitnesses = [
            self.params.good_weight * good_match[slot]
            + self.params.faulty_weight * faulty_match[slot]
            for slot in range(w)
        ]
        return fitnesses, None

    @staticmethod
    def _match_counts(state, required, w):
        counts = [0] * w
        for (p1, p0), want in zip(state, required):
            if want == X:
                for slot in range(w):
                    counts[slot] += 1
                continue
            ok = p1 & ~p0 if want == 1 else p0 & ~p1
            for slot in range(w):
                if ok & (1 << slot):
                    counts[slot] += 1
        return counts


@st.composite
def evaluator_cases(draw):
    """A justifier set-up plus several populations to score in turn."""
    circuit = draw(st.one_of(st.just(s27()), random_circuits()))
    pis = list(circuit.inputs)
    roles = draw(st.lists(st.sampled_from(["free", "fixed", "hold"]),
                          min_size=len(pis), max_size=len(pis)))
    fixed = {
        pi: draw(st.integers(0, 1))
        for pi, role in zip(pis, roles) if role == "fixed"
    }
    hold = {pi for pi, role in zip(pis, roles) if role == "hold"}
    model = draw(st.sampled_from([None, "stuck_at", "transition"]))
    fault = (
        None if model is None
        else draw(st.sampled_from(full_fault_list(circuit, model)))
    )
    flops = list(circuit.flops)
    req = st.sampled_from([0, 1, X])
    required_good = {
        ff: v for ff, v in zip(flops, draw(st.lists(
            req, min_size=len(flops), max_size=len(flops)))) if v != X
    }
    required_faulty = {
        ff: v for ff, v in zip(flops, draw(st.lists(
            req, min_size=len(flops), max_size=len(flops)))) if v != X
    }
    start_good = draw(st.lists(st.sampled_from([0, 1, X]),
                               min_size=len(flops), max_size=len(flops)))
    params = GAJustifyParams(
        seq_len=draw(st.integers(1, 4)),
        word_width=draw(st.sampled_from([1, 7, 64])),
        good_weight=draw(st.sampled_from([0.9, 0.5, 0.3])),
        faulty_weight=draw(st.sampled_from([0.1, 0.5, 0.7])),
    )
    n_bits = params.seq_len * len(pis)
    populations = draw(st.lists(
        st.lists(st.integers(0, (1 << n_bits) - 1), min_size=1, max_size=70),
        min_size=2, max_size=4,
    ))
    return (circuit, InputConstraints(fixed=fixed, hold=hold), fault,
            required_good, required_faulty, start_good, params, populations)


class TestEvaluatorMatchesReference:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(evaluator_cases())
    def test_consecutive_evaluations_match(self, case):
        # the production evaluator on codegen kernels against the
        # reference on the event simulator, the differential oracle
        (circuit, constraints, fault, required_good, required_faulty,
         start_good, params, populations) = case
        j = GAStateJustifier(AtpgContext(circuit, constraints=constraints))
        assert j.backend == "codegen"
        args = (j, params, fault, required_good, required_faulty, start_good)
        fast = _SequenceEvaluator(*args)
        reference = _ReferenceEvaluator(*args)
        for genomes in populations:
            assert fast.evaluate(genomes) == reference.evaluate(genomes)

    def test_all_dont_care_pays_out_at_frame_zero_slot_zero(self):
        j = GAStateJustifier(AtpgContext(s27()))
        params = GAJustifyParams(seq_len=3, word_width=7)
        evaluator = _SequenceEvaluator(j, params, None, {}, {}, [X, X, X])
        genomes = [0b1011, 0b0110, 0b1111]
        fitnesses, payload = evaluator.evaluate(genomes)
        assert fitnesses == [0.0, 0.0, 0.0]
        assert payload == j.decode(genomes[0], 3, 1)
