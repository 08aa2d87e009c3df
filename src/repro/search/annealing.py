"""Simulated annealing over fixed-length phase sequences.

The related work's observation that the space "contains enough local
minima" [9] cuts both ways: a pure descent gets stuck where an
annealer escapes.  The neighbor move is the hill climber's (one
position replaced), acceptance follows Metropolis on the *relative*
fitness change (objectives here range from tens of instructions to
hundreds of thousands of dynamic instructions, so the temperature is
scale-free), and the temperature cools geometrically.
"""

from __future__ import annotations

import math
from typing import Callable, List, Tuple

from repro.ir.function import Function
from repro.opt import PHASE_IDS
from repro.search.common import SearchResult, SearchStrategy, codesize_objective


class SimulatedAnnealer(SearchStrategy):
    """Metropolis search with a geometric cooling schedule."""

    name = "anneal"

    def __init__(
        self,
        func: Function,
        objective: Callable[[Function], float] = codesize_objective,
        sequence_length: int = 12,
        steps: int = 120,
        start_temperature: float = 0.10,
        cooling: float = 0.97,
        seed: int = 2006,
    ):
        super().__init__(
            func,
            objective,
            sequence_length=sequence_length,
            seed=seed,
        )
        self.steps = steps
        self.start_temperature = start_temperature
        self.cooling = cooling

    def _neighbor(self, sequence: Tuple[str, ...]) -> Tuple[str, ...]:
        position = self.rng.randrange(self.sequence_length)
        alternatives = [pid for pid in PHASE_IDS if pid != sequence[position]]
        replacement = self.rng.choice(alternatives)
        return sequence[:position] + (replacement,) + sequence[position + 1 :]

    def run(self) -> SearchResult:
        current = self._random_sequence()
        current_fitness, current_function = self._evaluate(current)
        best_sequence, best_fitness = current, current_fitness
        best_function = current_function
        history: List[float] = [best_fitness]
        temperature = self.start_temperature
        for _ in range(self.steps):
            candidate = self._neighbor(current)
            fitness, func = self._evaluate(candidate)
            delta = (fitness - current_fitness) / max(current_fitness, 1.0)
            if delta <= 0 or (
                temperature > 1e-12
                and self.rng.random() < math.exp(-delta / temperature)
            ):
                current, current_fitness = candidate, fitness
                if fitness < best_fitness:
                    best_sequence, best_fitness = candidate, fitness
                    best_function = func
            history.append(best_fitness)
            temperature *= self.cooling
        return self._result(best_sequence, best_fitness, best_function, history)
