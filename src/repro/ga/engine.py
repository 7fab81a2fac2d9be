"""The simple genetic algorithm from the paper (Goldberg-style).

Individuals are fixed-length binary strings stored as Python integers.
The population evolves with the exact operators the paper specifies:

* **tournament selection without replacement** — pairs are drawn randomly
  and removed from the selection pool, the fitter of each pair becomes a
  parent, and the pool is only refilled once it empties;
* **uniform crossover** with crossover probability 1 — each bit position
  swaps between the two parents with probability 1/2;
* **bitwise mutation** with probability 1/64 per bit;
* **non-overlapping generations** — the offspring replace the entire
  parent population — with the best individual ever seen saved aside.

Fitness evaluation is delegated to a batch evaluator so the caller can
score a whole population with bit-parallel simulation and signal early
termination the moment a satisfying individual appears.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Generic, List, Optional, Sequence, Tuple, TypeVar

from ..telemetry import NULL_RECORDER, Recorder

T = TypeVar("T")

#: Batch evaluator: genomes -> (fitness per genome, early-exit payload).
#: A non-``None`` payload stops evolution immediately.
Evaluator = Callable[[Sequence[int]], Tuple[List[float], Optional[T]]]


@dataclass
class GAParams:
    """Evolution parameters (paper defaults).

    Attributes:
        population_size: number of individuals (a multiple of the
            simulator word width keeps every simulation slot busy).
        generations: generations to evolve before giving up.
        mutation_rate: per-bit flip probability.
        crossover_rate: probability a selected pair is crossed (the paper
            uses 1: parents are always crossed).
    """

    population_size: int = 64
    generations: int = 4
    mutation_rate: float = 1.0 / 64.0
    crossover_rate: float = 1.0


@dataclass
class GAResult(Generic[T]):
    """Outcome of a GA run.

    Attributes:
        best_genome: highest-fitness individual observed in any generation.
        best_fitness: its fitness.
        payload: early-exit payload from the evaluator, or ``None`` when
            the run completed all generations without success.
        generations_run: generations actually evaluated.
        evaluations: total individuals scored.
    """

    best_genome: int
    best_fitness: float
    payload: Optional[T]
    generations_run: int
    evaluations: int


def mutate(genome: int, n_bits: int, rate: float, rng: random.Random) -> int:
    """Flip each of ``n_bits`` with probability ``rate`` (geometric skips)."""
    if rate <= 0.0:
        return genome
    if rate >= 1.0:
        return genome ^ ((1 << n_bits) - 1)
    i = 0
    # jump from flipped bit to flipped bit instead of testing every bit
    while True:
        u = rng.random()
        if u <= 0.0:
            u = 1e-12
        skip = int(math.log(u) / math.log(1.0 - rate))
        i += skip
        if i >= n_bits:
            return genome
        genome ^= 1 << i
        i += 1


def uniform_crossover(
    a: int, b: int, n_bits: int, rng: random.Random
) -> Tuple[int, int]:
    """Swap each bit position between two parents with probability 1/2."""
    swap_mask = rng.getrandbits(n_bits) if n_bits else 0
    child_a = (a & ~swap_mask) | (b & swap_mask)
    child_b = (b & ~swap_mask) | (a & swap_mask)
    return child_a, child_b


class TournamentSelector:
    """Tournament selection *without replacement*, as the paper specifies.

    Two individuals are drawn at random and removed from the pool; the
    fitter one is selected.  Individuals return to the pool only after the
    whole population has been consumed, so every individual competes
    exactly once per refill.
    """

    def __init__(self, rng: random.Random):
        self._rng = rng
        self._pool: List[int] = []

    def select(self, fitnesses: Sequence[float]) -> int:
        """Return the index of the next selected parent."""
        n = len(fitnesses)
        if len(self._pool) < 2:
            self._pool = list(range(n))
            self._rng.shuffle(self._pool)
        a = self._pool.pop()
        b = self._pool.pop()
        return a if fitnesses[a] >= fitnesses[b] else b

    def reset(self) -> None:
        """Empty the pool (called between generations)."""
        self._pool = []


class GeneticAlgorithm(Generic[T]):
    """The paper's simple GA over fixed-length binary genomes.

    Args:
        n_bits: genome length in bits.
        params: evolution parameters.
        evaluator: batch fitness function with early-exit payload.
        rng: random source (seed it for reproducible runs).
        telemetry: metrics recorder (defaults to the shared no-op).
    """

    def __init__(
        self,
        n_bits: int,
        params: GAParams,
        evaluator: Evaluator,
        rng: Optional[random.Random] = None,
        telemetry: Optional[Recorder] = None,
    ):
        if n_bits <= 0:
            raise ValueError("genomes need at least one bit")
        if params.population_size < 2 or params.population_size % 2:
            raise ValueError("population size must be even and at least 2")
        self.n_bits = n_bits
        self.params = params
        self.evaluator = evaluator
        self.rng = rng or random.Random()
        self.telemetry = telemetry or NULL_RECORDER

    def run(self) -> GAResult[T]:
        """Evolve until the evaluator signals success or generations run out."""
        population = [
            self.rng.getrandbits(self.n_bits)
            for _ in range(self.params.population_size)
        ]
        best_genome, best_fitness = population[0], float("-inf")
        evaluations = 0
        selector = TournamentSelector(self.rng)

        result: Optional[GAResult[T]] = None
        for generation in range(self.params.generations):
            fitnesses, payload = self.evaluator(population)
            evaluations += len(population)
            for genome, fit in zip(population, fitnesses):
                if fit > best_fitness:
                    best_genome, best_fitness = genome, fit
            if payload is not None:
                result = GAResult(
                    best_genome, best_fitness, payload, generation + 1, evaluations
                )
                break
            population = self._next_generation(population, fitnesses, selector)

        if result is None:
            result = GAResult(
                best_genome, best_fitness, None, self.params.generations,
                evaluations,
            )
        telemetry = self.telemetry
        telemetry.count("ga.runs")
        telemetry.count("ga.generations", result.generations_run)
        telemetry.count("ga.evaluations", result.evaluations)
        return result

    def _next_generation(
        self,
        population: List[int],
        fitnesses: List[float],
        selector: TournamentSelector,
    ) -> List[int]:
        rng = self.rng
        params = self.params
        selector.reset()
        offspring: List[int] = []
        while len(offspring) < params.population_size:
            pa = population[selector.select(fitnesses)]
            pb = population[selector.select(fitnesses)]
            if rng.random() < params.crossover_rate:
                ca, cb = uniform_crossover(pa, pb, self.n_bits, rng)
            else:
                ca, cb = pa, pb
            offspring.append(mutate(ca, self.n_bits, params.mutation_rate, rng))
            offspring.append(mutate(cb, self.n_bits, params.mutation_rate, rng))
        return offspring[: params.population_size]
