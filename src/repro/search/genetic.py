"""Genetic algorithm search for effective phase sequences.

The paper's related work ([3], [4], [14]) searches the attempted space
with genetic algorithms instead of enumerating it; its section 7
proposes two improvements that this module implements:

- **redundancy detection by fingerprinting** ([14], also section 4.2):
  sequences producing an already-seen function instance are not
  re-evaluated — the fitness cache is keyed by the instance
  fingerprint, not the sequence text;
- **interaction-guided mutation** (section 7): instead of uniform
  random phases, mutations sample the next phase from the measured
  enabling probabilities given the preceding gene, so the search
  spends its budget on sequences whose phases can actually be active.

With the space enumerated exhaustively (this repository's main
result), the GA's answer can be *checked against the true optimum* —
see ``tests/search/test_genetic.py`` and ``repro search-bench``
(docs/SEARCH.md).

The shared result type and objectives live in
:mod:`repro.search.common`; ``codesize_objective`` and
``dynamic_count_objective`` are re-exported here for backward
compatibility.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.core.interactions import InteractionAnalysis
from repro.ir.function import Function
from repro.opt import PHASE_IDS
from repro.search.common import (  # noqa: F401  (re-exports)
    SearchResult,
    SearchStrategy,
    codesize_objective,
    dynamic_count_objective,
)


class GeneticSearcher(SearchStrategy):
    """Search phase sequences with a generational GA.

    Chromosomes are fixed-length phase-id strings; applying one means
    attempting each phase in order (dormant attempts are no-ops, as in
    the paper's GA experiments).
    """

    name = "ga"

    def __init__(
        self,
        func: Function,
        objective: Callable[[Function], float] = codesize_objective,
        sequence_length: int = 12,
        population_size: int = 16,
        generations: int = 20,
        mutation_rate: float = 0.15,
        elite: int = 2,
        seed: int = 2006,
        interactions: Optional[InteractionAnalysis] = None,
    ):
        super().__init__(
            func,
            objective,
            sequence_length=sequence_length,
            seed=seed,
        )
        self.population_size = population_size
        self.generations = generations
        self.mutation_rate = mutation_rate
        self.elite = elite
        self.interactions = interactions

    # ------------------------------------------------------------------
    # Chromosome construction
    # ------------------------------------------------------------------

    def _sample_phase(self, previous: Optional[str]) -> str:
        """Next gene: uniform, or weighted by enabling probabilities."""
        if self.interactions is None:
            return self.rng.choice(PHASE_IDS)
        if previous is None:
            weights = [
                max(self.interactions.start.get(pid, 0.0), 0.02)
                for pid in PHASE_IDS
            ]
        else:
            weights = [
                max(
                    self.interactions.enabling.get(pid, {}).get(previous, 0.0),
                    0.02,
                )
                for pid in PHASE_IDS
            ]
        return self.rng.choices(PHASE_IDS, weights=weights, k=1)[0]

    def _random_sequence(self) -> Tuple[str, ...]:
        sequence: List[str] = []
        previous: Optional[str] = None
        for _ in range(self.sequence_length):
            gene = self._sample_phase(previous)
            sequence.append(gene)
            previous = gene
        return tuple(sequence)

    # ------------------------------------------------------------------
    # GA operators
    # ------------------------------------------------------------------

    def _crossover(self, a: Tuple[str, ...], b: Tuple[str, ...]) -> Tuple[str, ...]:
        point = self.rng.randrange(1, self.sequence_length)
        return a[:point] + b[point:]

    def _mutate(self, sequence: Tuple[str, ...]) -> Tuple[str, ...]:
        genes = list(sequence)
        for i in range(len(genes)):
            if self.rng.random() < self.mutation_rate:
                previous = genes[i - 1] if i > 0 else None
                genes[i] = self._sample_phase(previous)
        return tuple(genes)

    def _tournament(self, scored) -> Tuple[str, ...]:
        a, b = self.rng.sample(scored, 2)
        return a[1] if a[0] <= b[0] else b[1]

    # ------------------------------------------------------------------

    def run(self) -> SearchResult:
        population = [self._random_sequence() for _ in range(self.population_size)]
        best_fitness = float("inf")
        best_sequence: Tuple[str, ...] = population[0]
        best_function = self.base.clone()
        history: List[float] = []

        for _generation in range(self.generations):
            scored = []
            for sequence in population:
                fitness, func = self._evaluate(sequence)
                scored.append((fitness, sequence))
                if fitness < best_fitness:
                    best_fitness = fitness
                    best_sequence = sequence
                    best_function = func
            history.append(best_fitness)
            scored.sort(key=lambda pair: (pair[0], pair[1]))
            next_population = [seq for (_f, seq) in scored[: self.elite]]
            while len(next_population) < self.population_size:
                parent_a = self._tournament(scored)
                parent_b = self._tournament(scored)
                child = self._crossover(parent_a, parent_b)
                next_population.append(self._mutate(child))
            population = next_population

        return self._result(best_sequence, best_fitness, best_function, history)
