"""Random and weighted-random test generation baselines.

The paper's introduction traces simulation-based test generation from
random (Breuer [9]) through weighted random (Schnurmann et al. [10],
Lisanke et al. [11], Wunderlich [12]) to GA-based generators.  These
baselines complete that lineage in the repository:

* :class:`RandomTestGenerator` — uniform random vectors with periodic
  fault dropping;
* :class:`WeightedRandomTestGenerator` — per-input 1-probabilities adapted
  in stages: each stage perturbs the current weights, keeps whichever
  variant detects the most remaining faults (a light self-tuning scheme in
  the spirit of [11]'s testability-driven biasing).

Both report :class:`~repro.hybrid.results.RunResult` records so benchmark
tables can compare them directly with GA-SIM, HITEC, and GA-HITEC.
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
from ..simulation.compiled import compile_circuit
from ..simulation.fault_sim import FaultSimulator, GradedTestSet


@dataclass
class RandomAtpgParams:
    """Knobs shared by the random baselines.

    Attributes:
        block_len: vectors simulated between fault-dropping checks.
        stale_blocks: stop after this many blocks with no new detection.
        max_vectors: hard cap on the test-set length.
    """

    block_len: int = 32
    stale_blocks: int = 4
    max_vectors: int = 4000


class RandomTestGenerator:
    """Uniform random vectors with fault dropping (Breuer-style)."""

    name = "RANDOM"

    def __init__(self, circuit: Circuit, seed: int = 0, width: int = 64):
        self.circuit = circuit
        self.cc = compile_circuit(circuit)
        self.rng = random.Random(seed)
        self.sim = FaultSimulator(self.cc, width=width)
        self.n_pi = len(self.cc.pi)

    # ------------------------------------------------------------------
    def weights(self) -> List[float]:
        """Per-PI probability of driving a 1 (uniform here)."""
        return [0.5] * self.n_pi

    def _block(self, weights: Sequence[float], length: int) -> List[List[int]]:
        return [
            [int(self.rng.random() < w) for w in weights]
            for _ in range(length)
        ]

    def run(
        self,
        params: Optional[RandomAtpgParams] = None,
        faults: Optional[Sequence[Fault]] = None,
        time_limit: Optional[float] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> RunResult:
        """Generate until coverage stalls; returns cumulative statistics.

        Every block is kept while the run goes on, because the next block
        starts from the states it leaves; the test set ends with the last
        block that detected a fault, and ``blocks`` holds the offsets of
        the detecting blocks.
        """
        params = params or RandomAtpgParams()
        tick = clock or monotonic
        start = tick()
        tests = GradedTestSet(
            self.sim,
            faults if faults is not None else collapse_faults(self.circuit),
        )
        result = RunResult(
            circuit_name=self.circuit.name,
            generator=self.name,
            total_faults=len(tests.remaining),
        )
        end = 0  # the test set ends after the last detecting block
        stale = 0
        block_no = 0

        while (
            tests.remaining
            and stale < params.stale_blocks
            and len(tests.vectors) < params.max_vectors
        ):
            if (
                time_limit is not None
                and tick() - start >= time_limit
            ):
                break
            block_no += 1
            found = len(tests.detected)
            tests.apply(self._next_block(params, tests), keep=lambda d: True)
            if len(tests.detected) > found:
                result.blocks.append(tests.blocks[-1])
                end = len(tests.vectors)
                stale = 0
            else:
                stale += 1
            result.passes.append(
                PassStats(
                    number=block_no,
                    approach=self.name.lower(),
                    detected=len(tests.detected),
                    vectors=end,
                    time_s=tick() - start,
                )
            )

        result.test_set = tests.vectors[:end]
        result.detected = tests.detected
        return result

    def _next_block(
        self, params: RandomAtpgParams, tests: GradedTestSet
    ) -> List[List[int]]:
        return self._block(self.weights(), params.block_len)


class WeightedRandomTestGenerator(RandomTestGenerator):
    """Self-tuning weighted-random generation.

    Each block, a few candidate weight vectors (the incumbent plus random
    perturbations) are scored by trial fault simulation against the
    remaining faults; the winner's block is emitted and becomes the new
    incumbent.  Weights are clamped away from 0/1 so every input keeps
    toggling.
    """

    name = "WRANDOM"

    def __init__(
        self,
        circuit: Circuit,
        seed: int = 0,
        width: int = 64,
        candidates: int = 3,
        step: float = 0.25,
    ):
        super().__init__(circuit, seed=seed, width=width)
        self.candidates = max(1, candidates)
        self.step = step
        self._weights = [0.5] * self.n_pi

    def weights(self) -> List[float]:
        return list(self._weights)

    def _perturb(self) -> List[float]:
        return [
            min(0.9, max(0.1, w + self.rng.uniform(-self.step, self.step)))
            for w in self._weights
        ]

    def _next_block(
        self, params: RandomAtpgParams, tests: GradedTestSet
    ) -> List[List[int]]:
        options = [self.weights()] + [
            self._perturb() for _ in range(self.candidates - 1)
        ]
        best_block: List[List[int]] = []
        best_score = -1
        best_weights = self._weights
        for weights in options:
            block = self._block(weights, params.block_len)
            outcome = self.sim.run(
                block, tests.remaining, good_state=tests.good_state,
                fault_states=tests.fault_states, stop_on_all_detected=False,
            )
            score = len(outcome.detected)
            if score > best_score:
                best_score = score
                best_block = block
                best_weights = weights
        self._weights = list(best_weights)
        return best_block
