"""Uniform random sampling — the null hypothesis of the strategy zoo.

Figure 5 of the paper shows the leaf codesize distribution is heavily
concentrated near the optimum for many functions; when that holds,
plain random sampling is hard to beat and every smarter strategy must
justify its machinery against it.  The sampler draws fixed-length
uniform sequences, prices them through the shared fingerprint cache,
and keeps the best.
"""

from __future__ import annotations

from typing import Callable, List, Tuple

from repro.ir.function import Function
from repro.search.common import SearchResult, SearchStrategy, codesize_objective


class RandomSampler(SearchStrategy):
    """Evaluate *samples* independent uniform random sequences."""

    name = "random"

    def __init__(
        self,
        func: Function,
        objective: Callable[[Function], float] = codesize_objective,
        sequence_length: int = 12,
        samples: int = 120,
        seed: int = 2006,
    ):
        super().__init__(
            func,
            objective,
            sequence_length=sequence_length,
            seed=seed,
        )
        self.samples = samples

    def run(self) -> SearchResult:
        best_fitness = float("inf")
        best_sequence: Tuple[str, ...] = ()
        best_function = self.base.clone()
        history: List[float] = []
        for _ in range(self.samples):
            sequence = self._random_sequence()
            fitness, func = self._evaluate(sequence)
            if fitness < best_fitness:
                best_fitness = fitness
                best_sequence = sequence
                best_function = func
            history.append(best_fitness)
        return self._result(best_sequence, best_fitness, best_function, history)
