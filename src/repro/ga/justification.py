"""Genetic state justification (Section IV of the paper).

Each GA individual encodes a candidate input sequence: ``seq_len`` vectors
of ``n_pi`` bits laid out contiguously along the binary string (vector 0
in the lowest bits).  A whole population slice is simulated at once —
individual ``i`` rides bit slot ``i`` of the packed simulator words — for
both the good circuit (starting from the *current* good state, the state
reached after all previously generated tests) and the faulty circuit
(starting all-unknown, as the paper prescribes, with the target fault
injected in every slot).

The state is compared against the requirement after **every** vector, so a
successful sequence may be shorter than the coded length.  When no
individual matches, fitness drives evolution toward the target:

    fitness = 9/10 · (# matching flip-flops, good circuit)
            + 1/10 · (# matching flip-flops, faulty circuit)

A flip-flop matches when the requirement is a don't-care or the values are
equal; a full match in both circuits scores exactly ``n_ff``.

From a reachable start, a requirement no reachable state matches
(:mod:`repro.atpg.reachable`) is not simulated: the GA runs on zero fitness,
and as its draws never depend on fitness, the random source ends where a
full run would leave it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..atpg.context import AtpgContext
from ..atpg.justify import JustifyResult, JustifyStatus
from ..atpg.reachable import reachable_states
from ..faults.model import Fault
from ..knowledge import StateKnowledge
from ..simulation.encoding import X, PackedValue, full_mask, pack_const
from ..simulation.fault_sim import injection_for
from ..simulation.logic_sim import FrameSimulator, make_simulator
from .engine import GAParams, GeneticAlgorithm

#: Fitness weights for the good and faulty circuit goals (paper: 9/10, 1/10).
GOOD_WEIGHT = 0.9
FAULTY_WEIGHT = 0.1


@dataclass
class GAJustifyParams:
    """Knobs for one GA justification attempt.

    Attributes:
        population_size: individuals per generation (pass 1: 64, pass 2: 128).
        generations: evolution budget (pass 1: 4, pass 2: 8).
        seq_len: coded sequence length in vectors (a multiple of the
            circuit's sequential depth, per the paper).
        word_width: simulation slots per batch.
        good_weight / faulty_weight: fitness weights (ablation knob).
    """

    population_size: int = 64
    generations: int = 4
    seq_len: int = 8
    word_width: int = 64
    good_weight: float = GOOD_WEIGHT
    faulty_weight: float = FAULTY_WEIGHT


class GAStateJustifier:
    """Evolves input sequences that drive the circuit into a required state.

    Args:
        ctx: the shared per-circuit state: compiled circuit, input
            constraints, telemetry and the optional knowledge store.
        rng: random source shared across attempts (seed for reproducibility).

    When the context carries a :class:`~repro.knowledge.StateKnowledge`
    store, successful all-X-start justifications are recorded in it.
    """

    #: Simulator of every fitness evaluation: an attempt reruns one
    #: injection shape for every batch, so one compiled kernel pair serves
    #: them all (fault grading keeps ``event``).  Tests set it to
    #: ``"event"`` to check that results do not depend on it.
    backend = "codegen"

    def __init__(self, ctx: AtpgContext, rng: Optional[random.Random] = None):
        self.ctx = ctx
        self.cc = ctx.cc
        self.rng = rng or random.Random()
        self.telemetry = ctx.telemetry
        #: generations evolved over every attempt; callers read deltas
        self.generations = 0
        self.n_pi = len(self.cc.pi)
        self.n_ff = len(self.cc.ff_out)
        self.constraints = ctx.constraints
        # pin categories for constrained sequence decoding
        name_of = {i: self.cc.net_names[idx] for i, idx in enumerate(self.cc.pi)}
        self._fixed_pins: Dict[int, int] = {
            pin: self.constraints.fixed[name_of[pin]]
            for pin in range(self.n_pi)
            if name_of[pin] in self.constraints.fixed
        }
        self._hold_pins = {
            pin for pin in range(self.n_pi)
            if name_of[pin] in self.constraints.hold
        }

    @property
    def knowledge(self) -> Optional[StateKnowledge]:
        return self.ctx.knowledge

    # ------------------------------------------------------------------
    def justify(
        self,
        required_good: Dict[str, int],
        params: GAJustifyParams,
        fault: Optional[Fault] = None,
        required_faulty: Optional[Dict[str, int]] = None,
        current_good_state: Optional[Sequence[int]] = None,
    ) -> JustifyResult:
        """Search for a sequence that justifies the required state.

        Args:
            required_good: cared good-circuit flip-flop values {net: 0/1}.
            params: GA parameters for this attempt.
            fault: target fault, injected during faulty-circuit simulation.
            required_faulty: cared faulty-circuit values (defaults to the
                good requirement, matching the hybrid engine's frame-0
                assignments).
            current_good_state: good-circuit starting state (scalars in
                flip-flop order); defaults to all-X.

        Returns:
            A :class:`~repro.atpg.justify.JustifyResult`; on success its
            vectors justify the state starting from ``current_good_state``.
            Failure status is always ``BOUNDED`` — a GA can never prove
            unjustifiability.
        """
        required_faulty = (
            required_faulty if required_faulty is not None else dict(required_good)
        )
        start_good = (
            list(current_good_state)
            if current_good_state is not None
            else [X] * self.n_ff
        )

        # The paper checks before searching: if the current good state
        # already satisfies the requirement and the all-unknown faulty
        # state does too (i.e. no cared faulty bits), nothing to justify.
        if self._state_matches(required_good, start_good) and not required_faulty:
            self.telemetry.count("ga.justify.trivial")
            return JustifyResult(JustifyStatus.JUSTIFIED, [])

        n_bits = max(1, params.seq_len * self.n_pi)
        if self._unreachable(required_good, start_good):
            # no sequence can succeed; the GA still draws what a run would
            self.telemetry.count("ga.justify.unreachable")
            evaluate = _zero_fitness
        else:
            evaluate = _SequenceEvaluator(
                self, params, fault, required_good, required_faulty, start_good
            ).evaluate
        ga: GeneticAlgorithm = GeneticAlgorithm(
            n_bits,
            GAParams(
                population_size=params.population_size,
                generations=params.generations,
            ),
            evaluate,
            rng=self.rng,
            telemetry=self.telemetry,
        )
        with self.telemetry.span("ga.justify"):
            result = ga.run()
        self.generations += result.generations_run
        if result.payload is not None:
            self.telemetry.count("ga.justify.successes")
            # only all-X-start proofs hold from every concrete start state
            if self.knowledge is not None and current_good_state is None:
                self.knowledge.record_justified(required_good, result.payload)
            return JustifyResult(JustifyStatus.JUSTIFIED, result.payload)
        return JustifyResult(JustifyStatus.BOUNDED)

    # ------------------------------------------------------------------
    def _unreachable(self, required: Dict[str, int], start: Sequence[int]) -> bool:
        """True when ``start`` is reachable, and so is every state after it,
        but no reachable state has ``required``'s cared flip-flop values."""
        states = reachable_states(self.cc)
        if states is None or tuple(start) not in states:
            return False
        cared = [
            (self.cc.ff_out.index(self.cc.index[name]), want)
            for name, want in required.items()
            if want != X
        ]
        return not any(
            all(state[pos] == want for pos, want in cared) for state in states
        )

    def _state_matches(
        self, required: Dict[str, int], state: Sequence[int]
    ) -> bool:
        for name, want in required.items():
            pos = self.cc.ff_out.index(self.cc.index[name])
            if state[pos] != want:
                return False
        return True

    def decode(self, genome: int, seq_len: int, n_vectors: int) -> List[List[int]]:
        """Decode the first ``n_vectors`` vectors of a genome.

        Constraints are applied by construction: fixed pins always decode
        to their constant, hold pins reuse their vector-0 bit in every
        later vector, so every candidate the GA evaluates (and every
        sequence it returns) satisfies the environment by design — the
        forward-only advantage Section VI of the paper highlights.
        """
        vectors = []
        for v in range(n_vectors):
            base = v * self.n_pi
            vec = []
            for j in range(self.n_pi):
                if j in self._fixed_pins:
                    vec.append(self._fixed_pins[j])
                elif j in self._hold_pins:
                    vec.append((genome >> j) & 1)  # vector-0 bit
                else:
                    vec.append((genome >> (base + j)) & 1)
            vectors.append(vec)
        return vectors


class _SequenceEvaluator:
    """Bit-parallel fitness evaluation of one population.

    One good/faulty simulator pair per batch width serves every batch of
    the attempt; each batch resets it to the attempt's start states.
    """

    def __init__(
        self,
        justifier: GAStateJustifier,
        params: GAJustifyParams,
        fault: Optional[Fault],
        required_good: Dict[str, int],
        required_faulty: Dict[str, int],
        start_good: Sequence[int],
    ):
        self.j = justifier
        self.params = params
        self.fault = fault
        self.start_good = start_good
        cc = justifier.cc
        # per-flip-flop requirement scalars, in flip-flop order (X = don't care)
        self.req_good = [X] * justifier.n_ff
        for name, val in required_good.items():
            self.req_good[cc.ff_out.index(cc.index[name])] = val
        self.req_faulty = [X] * justifier.n_ff
        for name, val in required_faulty.items():
            self.req_faulty[cc.ff_out.index(cc.index[name])] = val
        self._sims: Dict[int, Tuple[FrameSimulator, FrameSimulator]] = {}

    def evaluate(
        self, genomes: Sequence[int]
    ) -> Tuple[List[float], Optional[List[List[int]]]]:
        """Score every genome; return a justifying sequence if one appears."""
        fitnesses: List[float] = []
        for start in range(0, len(genomes), self.params.word_width):
            batch = genomes[start : start + self.params.word_width]
            scores, payload = self._evaluate_batch(batch)
            if payload is not None:
                fitnesses.extend(scores)
                fitnesses.extend([0.0] * (len(genomes) - len(fitnesses)))
                return fitnesses, payload
            fitnesses.extend(scores)
        return fitnesses, None

    # ------------------------------------------------------------------
    def _simulators(self, w: int) -> Tuple[FrameSimulator, FrameSimulator]:
        """The width-``w`` good/faulty pair, at the attempt's start states."""
        sims = self._sims.get(w)
        if sims is None:
            j = self.j
            injections = (
                [injection_for(j.cc, self.fault, full_mask(w))] if self.fault else []
            )
            sims = (
                make_simulator(j.cc, width=w, backend=j.backend),
                make_simulator(j.cc, width=w, injections=injections,
                               backend=j.backend),
            )
            self._sims[w] = sims
        else:
            for sim in sims:
                sim.reset()
        # the faulty circuit starts all-unknown (paper, Section IV-A)
        sims[0].set_state([pack_const(v, w) for v in self.start_good])
        return sims

    def _evaluate_batch(
        self, batch: Sequence[int]
    ) -> Tuple[List[float], Optional[List[List[int]]]]:
        j = self.j
        w = len(batch)
        mask = full_mask(w)
        good_sim, faulty_sim = self._simulators(w)
        seq_len = max(1, self.params.seq_len)
        n_pi = j.n_pi
        words = _transpose(batch, max(1, seq_len * n_pi))
        fixed = {pin: pack_const(val, w) for pin, val in j._fixed_pins.items()}
        hold = j._hold_pins
        for v in range(seq_len):
            base = v * n_pi
            vector = []
            for pin in range(n_pi):
                if pin in fixed:
                    vector.append(fixed[pin])
                    continue
                p1 = words[pin if pin in hold else base + pin]
                vector.append((p1, ~p1 & mask))
            good_sim.step(vector)
            faulty_sim.step(vector)
            good_state = good_sim.get_state()
            hit = _match_mask(good_state, self.req_good, mask)
            if hit:
                hit = _match_mask(faulty_sim.get_state(), self.req_faulty, hit)
                if hit:
                    slot = (hit & -hit).bit_length() - 1
                    return [0.0] * w, j.decode(batch[slot], seq_len, v + 1)
        good_match = _match_counts(good_state, self.req_good, w)
        faulty_match = _match_counts(faulty_sim.get_state(), self.req_faulty, w)
        return [
            self.params.good_weight * g + self.params.faulty_weight * f
            for g, f in zip(good_match, faulty_match)
        ], None


def _zero_fitness(genomes: Sequence[int]) -> Tuple[List[float], None]:
    """Fitness of a population that cannot succeed; simulates nothing."""
    return [0.0] * len(genomes), None


def _transpose(genomes: Sequence[int], n_bits: int) -> List[int]:
    """Word ``b`` holds bit ``b`` of every genome, genome ``i`` in slot ``i``."""
    rows = "".join(format(g, f"0{n_bits}b")[-n_bits:] for g in reversed(genomes))
    last = n_bits - 1
    return [int(rows[last - b :: n_bits], 2) for b in range(n_bits)]


def _matches(value: PackedValue, want: int) -> int:
    """Slots whose flip-flop value is exactly the wanted 0/1."""
    p1, p0 = value
    return p1 & ~p0 if want == 1 else p0 & ~p1


def _match_mask(
    state: Sequence[PackedValue], required: Sequence[int], mask: int
) -> int:
    """Slots of ``mask`` where every cared flip-flop matches."""
    for value, want in zip(state, required):
        if want != X:
            mask &= _matches(value, want)
    return mask


def _match_counts(
    state: Sequence[PackedValue], required: Sequence[int], w: int
) -> List[int]:
    """Per-slot count of flip-flops satisfying the requirement."""
    rows = "".join(
        format(_matches(value, want), f"0{w}b")
        for value, want in zip(state, required)
        if want != X
    )
    dont_care = sum(1 for want in required if want == X)
    last = w - 1
    return [dont_care + rows[last - slot :: w].count("1") for slot in range(w)]
