"""Purely simulation-based GA test generation (GATEST/CRIS style).

The paper's premise is that *hybrid* beats both pure approaches: its
introduction cites simulation-based GA test generators (refs [15–18],
including the authors' own GATEST) whose strengths and weaknesses motivate
GA-HITEC.  This module implements that missing comparator so the
repository can reproduce the three-way story: GA-only versus
deterministic-only (HITEC) versus hybrid (GA-HITEC).

The generator targets *many faults at once*, forward simulation only:

1. A GA population of candidate vector sequences is evolved; the fitness
   of a sequence is the number of remaining faults it newly detects when
   appended to the test set, plus partial credit for faults whose
   flip-flop state diverges between good and faulty machines (fault
   *activation*, the standard simulation-based guidance).
2. The best sequence is committed, detected faults are dropped, per-fault
   states roll forward, and the loop repeats until several consecutive
   rounds add nothing.

No backtracing, no time frames, no untestability proofs — exactly the
profile the paper describes for simulation-based generators.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from ..circuit.netlist import Circuit
from ..clock import monotonic
from ..faults.collapse import collapse_faults
from ..faults.model import Fault
from ..hybrid.results import PassStats, RunResult
from ..simulation.compiled import CompiledCircuit, compile_circuit
from ..simulation.encoding import X
from ..simulation.fault_sim import FaultSimulator, GradedTestSet
from .engine import GAParams, GeneticAlgorithm


@dataclass
class GAAtpgParams:
    """Knobs for the simulation-based generator.

    Attributes:
        population_size: candidate sequences per generation.
        generations: GA generations per committed sequence.
        seq_len: vectors per candidate sequence.
        stale_rounds: stop after this many rounds without a new detection.
        max_vectors: hard cap on the emitted test-set length.
        activity_weight: fitness credit per state-divergent fault,
            relative to 1.0 per detected fault.
    """

    population_size: int = 16
    generations: int = 4
    seq_len: int = 8
    stale_rounds: int = 3
    max_vectors: int = 2000
    activity_weight: float = 0.05


class GASimulationTestGenerator:
    """Forward-only, multi-fault, GA-driven test generation.

    Args:
        circuit: circuit under test.
        seed: seed for all stochastic choices.
        width: fault-simulation word width.
    """

    def __init__(self, circuit: Circuit, seed: int = 0, width: int = 64):
        self.circuit = circuit
        self.cc: CompiledCircuit = compile_circuit(circuit)
        self.rng = random.Random(seed)
        self.sim = FaultSimulator(self.cc, width=width)
        self.n_pi = len(self.cc.pi)

    # ------------------------------------------------------------------
    def run(
        self,
        params: Optional[GAAtpgParams] = None,
        faults: Optional[Sequence[Fault]] = None,
        time_limit: Optional[float] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> RunResult:
        """Generate a test set; returns paper-style cumulative statistics."""
        params = params or GAAtpgParams()
        tick = clock or monotonic
        start_time = tick()
        tests = GradedTestSet(
            self.sim,
            faults if faults is not None else collapse_faults(self.circuit),
        )
        result = RunResult(
            circuit_name=self.circuit.name,
            generator="GA-SIM",
            total_faults=len(tests.remaining),
        )

        stale = 0
        round_no = 0
        while (
            tests.remaining
            and stale < params.stale_rounds
            and len(tests.vectors) < params.max_vectors
        ):
            if (
                time_limit is not None
                and tick() - start_time >= time_limit
            ):
                break
            round_no += 1
            if tests.apply(self._evolve_sequence(params, tests)):
                stale = 0
            else:
                stale += 1

            result.passes.append(
                PassStats(
                    number=round_no,
                    approach="ga-sim",
                    detected=len(tests.detected),
                    vectors=len(tests.vectors),
                    time_s=tick() - start_time,
                    untestable=0,  # simulation alone can prove nothing
                )
            )

        result.test_set = tests.vectors
        result.blocks = tests.blocks
        result.detected = tests.detected
        return result

    # ------------------------------------------------------------------
    def _evolve_sequence(
        self, params: GAAtpgParams, tests: GradedTestSet
    ) -> List[List[int]]:
        n_bits = params.seq_len * self.n_pi

        def evaluator(genomes):
            scores = []
            for genome in genomes:
                outcome = self.sim.run(
                    self._decode(genome, params.seq_len),
                    tests.remaining,
                    good_state=tests.good_state,
                    fault_states=tests.fault_states,
                    stop_on_all_detected=False,
                )
                active = sum(
                    1
                    for state in outcome.fault_states.values()
                    if self._diverged(state, outcome.good_state)
                )
                scores.append(
                    len(outcome.detected) + params.activity_weight * active
                )
            return scores, None

        ga: GeneticAlgorithm = GeneticAlgorithm(
            n_bits,
            GAParams(
                population_size=params.population_size,
                generations=params.generations,
            ),
            evaluator,
            rng=self.rng,
        )
        outcome = ga.run()
        return self._decode(outcome.best_genome, params.seq_len)

    def _decode(self, genome: int, seq_len: int) -> List[List[int]]:
        return [
            [(genome >> (v * self.n_pi + i)) & 1 for i in range(self.n_pi)]
            for v in range(seq_len)
        ]

    @staticmethod
    def _diverged(fault_state: Sequence[int], good_state: Sequence[int]) -> bool:
        """True when some flip-flop provably differs between the machines."""
        return any(
            f != g and f != X and g != X
            for f, g in zip(fault_state, good_state)
        )
