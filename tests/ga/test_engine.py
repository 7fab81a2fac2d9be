"""Tests for the simple GA engine and its operators."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.ga.engine import (
    GAParams,
    GeneticAlgorithm,
    TournamentSelector,
    mutate,
    uniform_crossover,
)
from repro.simulation.encoding import popcount


class TestMutate:
    @given(st.integers(0, 2**64 - 1), st.integers(0, 99))
    def test_zero_rate_is_identity(self, genome, seed):
        assert mutate(genome, 64, 0.0, random.Random(seed)) == genome

    @given(st.integers(0, 2**32 - 1))
    def test_rate_one_flips_everything(self, genome):
        flipped = mutate(genome, 32, 1.0, random.Random(0))
        assert flipped == genome ^ ((1 << 32) - 1)

    def test_mutation_rate_statistics(self):
        """Flip count over many genomes matches the 1/64 rate (±30%)."""
        rng = random.Random(7)
        n_bits, trials, rate = 1024, 200, 1.0 / 64.0
        flips = sum(
            popcount(mutate(0, n_bits, rate, rng)) for _ in range(trials)
        )
        expected = n_bits * trials * rate
        assert 0.7 * expected < flips < 1.3 * expected

    def test_never_touches_bits_beyond_length(self):
        rng = random.Random(1)
        for _ in range(100):
            assert mutate(0, 8, 0.5, rng) < (1 << 8)


class TestCrossover:
    @given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1), st.integers(0, 99))
    def test_children_preserve_bit_multiset(self, a, b, seed):
        ca, cb = uniform_crossover(a, b, 32, random.Random(seed))
        for bit in range(32):
            m = 1 << bit
            assert sorted([bool(a & m), bool(b & m)]) == sorted(
                [bool(ca & m), bool(cb & m)]
            )

    def test_swap_rate_near_half(self):
        rng = random.Random(3)
        n_bits, trials = 256, 100
        a, b = 0, (1 << n_bits) - 1
        swapped = sum(popcount(uniform_crossover(a, b, n_bits, rng)[0])
                      for _ in range(trials))
        expected = n_bits * trials / 2
        assert 0.85 * expected < swapped < 1.15 * expected


class TestTournament:
    def test_without_replacement_semantics(self):
        """Each refill consumes every individual exactly once."""
        rng = random.Random(5)
        selector = TournamentSelector(rng)
        fitnesses = [float(i) for i in range(10)]
        picks = [selector.select(fitnesses) for _ in range(5)]
        # 5 selections = 10 draws = exactly one full pool consumption
        assert len(picks) == 5
        # the best individual is guaranteed to win its tournament
        assert 9 in picks

    def test_winner_is_fitter(self):
        rng = random.Random(6)
        selector = TournamentSelector(rng)
        fitnesses = [0.0, 1.0]
        for _ in range(10):
            assert selector.select(fitnesses) == 1


class TestGeneticAlgorithm:
    def test_validates_parameters(self):
        with pytest.raises(ValueError):
            GeneticAlgorithm(0, GAParams(), lambda g: ([0.0], None))
        with pytest.raises(ValueError):
            GeneticAlgorithm(8, GAParams(population_size=7),
                             lambda g: ([0.0] * 7, None))

    def test_solves_onemax(self):
        """Fitness pressure must raise the population's bit count."""
        n_bits = 32

        def evaluator(genomes):
            return [popcount(g) for g in genomes], None

        ga = GeneticAlgorithm(
            n_bits,
            GAParams(population_size=64, generations=20),
            evaluator,
            rng=random.Random(0),
        )
        result = ga.run()
        assert result.best_fitness >= 28  # near-optimal out of 32

    def test_early_exit_payload(self):
        calls = []

        def evaluator(genomes):
            calls.append(len(genomes))
            return [0.0] * len(genomes), "found"

        ga = GeneticAlgorithm(
            8, GAParams(population_size=4, generations=10), evaluator,
            rng=random.Random(0),
        )
        result = ga.run()
        assert result.payload == "found"
        assert result.generations_run == 1
        assert len(calls) == 1

    def test_runs_all_generations_without_payload(self):
        def evaluator(genomes):
            return [0.0] * len(genomes), None

        ga = GeneticAlgorithm(
            8, GAParams(population_size=4, generations=5), evaluator,
            rng=random.Random(0),
        )
        result = ga.run()
        assert result.payload is None
        assert result.generations_run == 5
        assert result.evaluations == 20

    def test_random_stream_does_not_depend_on_fitness(self):
        """A run without a payload leaves the generator in the same state
        whatever the fitness values: GA justification skips simulating
        an unreachable cube on the strength of this."""
        noise = random.Random(1)
        evaluators = {
            "zero": lambda g: ([0.0] * len(g), None),
            "constant": lambda g: ([3.0] * len(g), None),
            "random": lambda g: ([noise.random() for _ in g], None),
            "onemax": lambda g: ([popcount(x) for x in g], None),
        }
        states = {}
        for name, evaluator in evaluators.items():
            rng = random.Random(5)
            GeneticAlgorithm(
                24, GAParams(population_size=16, generations=6), evaluator,
                rng=rng,
            ).run()
            states[name] = rng.getstate()
        assert all(state == states["zero"] for state in states.values())

    def test_best_ever_is_saved_across_generations(self):
        """The best individual may appear early and must not be lost."""
        seen_best = []

        def evaluator(genomes):
            fits = [popcount(g) for g in genomes]
            seen_best.append(max(fits))
            return fits, None

        ga = GeneticAlgorithm(
            16, GAParams(population_size=8, generations=6), evaluator,
            rng=random.Random(42),
        )
        result = ga.run()
        assert result.best_fitness == max(seen_best)

    def test_reproducible_with_same_seed(self):
        def evaluator(genomes):
            return [popcount(g) for g in genomes], None

        def run(seed):
            return GeneticAlgorithm(
                16, GAParams(population_size=8, generations=4), evaluator,
                rng=random.Random(seed),
            ).run().best_genome

        assert run(9) == run(9)
