"""Hill-climbing phase order search (related work [5], [9]).

The paper's related work reports that the phase order space "contains
enough local minima that biased sampling techniques, such as hill
climbers and genetic algorithms, should find good solutions" [9].  This
steepest-descent hill climber over fixed-length sequences provides the
baseline: neighbors differ in exactly one position, evaluation is
fingerprint-cached like the GA's, and restarts escape local minima.
"""

from __future__ import annotations

from typing import Callable, List, Tuple

from repro.ir.function import Function
from repro.opt import PHASE_IDS
from repro.search.common import (
    SearchResult,
    SearchStrategy,
    codesize_objective,
)


class HillClimber(SearchStrategy):
    """Steepest-descent search with random restarts."""

    name = "hillclimb"

    def __init__(
        self,
        func: Function,
        objective: Callable[[Function], float] = codesize_objective,
        sequence_length: int = 12,
        restarts: int = 4,
        max_steps: int = 40,
        seed: int = 2006,
    ):
        super().__init__(
            func,
            objective,
            sequence_length=sequence_length,
            seed=seed,
        )
        self.restarts = restarts
        self.max_steps = max_steps

    def _neighbors(self, sequence: Tuple[str, ...]):
        for position in range(len(sequence)):
            for phase_id in PHASE_IDS:
                if phase_id != sequence[position]:
                    yield (
                        sequence[:position] + (phase_id,) + sequence[position + 1 :]
                    )

    def run(self) -> SearchResult:
        best_fitness = float("inf")
        best_sequence: Tuple[str, ...] = ()
        best_function = self.base.clone()
        history: List[float] = []
        for _restart in range(self.restarts):
            current = self._random_sequence()
            current_fitness, current_function = self._evaluate(current)
            for _step in range(self.max_steps):
                candidates = [
                    (self._evaluate(neighbor)[0], neighbor)
                    for neighbor in self._neighbors(current)
                ]
                neighbor_fitness, neighbor = min(
                    candidates, key=lambda pair: (pair[0], pair[1])
                )
                if neighbor_fitness >= current_fitness:
                    break  # local minimum
                current, current_fitness = neighbor, neighbor_fitness
            if current_fitness < best_fitness:
                best_fitness = current_fitness
                best_sequence = current
                best_function = self._evaluate(current)[1]
            history.append(best_fitness)
        return self._result(best_sequence, best_fitness, best_function, history)
