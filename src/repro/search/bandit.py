"""Bandit search: each sequence position is a multi-armed bandit.

Learned phase-ordering approaches (AutoPhase, arXiv 2003.00671;
POSET-RL in PAPERS.md) frame phase selection as reinforcement
learning.  This is the tabular core of that idea, small enough to be
scored against the exhaustive oracle: position ``i`` of the sequence
is a bandit whose arms are the phases, an episode builds one sequence
by consulting every position's arm statistics, and the episode's
reward — the relative improvement of the final instance over the
unoptimized one — updates every arm that was pulled.

Two classic policies are provided:

- ``epsilon`` — epsilon-greedy: explore uniformly with probability
  ``epsilon``, otherwise exploit the best mean reward;
- ``ucb`` — UCB1: always pull the arm maximizing
  ``mean + c * sqrt(ln(t) / n)``, after pulling every arm once.

Ties break deterministically on phase id, so a fixed seed yields a
bit-identical :class:`~repro.search.common.SearchResult`.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Tuple

from repro.ir.function import Function
from repro.opt import PHASE_IDS
from repro.search.common import SearchResult, SearchStrategy, codesize_objective

POLICIES = ("epsilon", "ucb")


class BanditSearcher(SearchStrategy):
    """Per-position bandit construction of phase sequences."""

    def __init__(
        self,
        func: Function,
        objective: Callable[[Function], float] = codesize_objective,
        sequence_length: int = 12,
        episodes: int = 120,
        policy: str = "epsilon",
        epsilon: float = 0.15,
        exploration: float = 1.2,
        seed: int = 2006,
    ):
        if policy not in POLICIES:
            raise ValueError(
                f"bad bandit policy {policy!r}; expected one of {POLICIES}"
            )
        super().__init__(
            func,
            objective,
            sequence_length=sequence_length,
            seed=seed,
        )
        self.episodes = episodes
        self.policy = policy
        self.epsilon = epsilon
        self.exploration = exploration
        self.name = f"bandit-{'eps' if policy == 'epsilon' else 'ucb'}"
        #: per-position arm statistics: pulls and mean reward
        self._pulls: List[Dict[str, int]] = [
            {pid: 0 for pid in PHASE_IDS} for _ in range(sequence_length)
        ]
        self._means: List[Dict[str, float]] = [
            {pid: 0.0 for pid in PHASE_IDS} for _ in range(sequence_length)
        ]

    # ------------------------------------------------------------------

    def _pick_epsilon(self, position: int) -> str:
        if self.rng.random() < self.epsilon:
            return self.rng.choice(PHASE_IDS)
        means = self._means[position]
        return max(PHASE_IDS, key=lambda pid: (means[pid], pid))

    def _pick_ucb(self, position: int) -> str:
        pulls = self._pulls[position]
        for pid in PHASE_IDS:  # pull every arm once, in phase order
            if pulls[pid] == 0:
                return pid
        total = sum(pulls.values())
        means = self._means[position]

        def ucb(pid: str) -> float:
            return means[pid] + self.exploration * math.sqrt(
                math.log(total) / pulls[pid]
            )

        return max(PHASE_IDS, key=lambda pid: (ucb(pid), pid))

    def _build_sequence(self) -> Tuple[str, ...]:
        pick = self._pick_epsilon if self.policy == "epsilon" else self._pick_ucb
        return tuple(pick(position) for position in range(self.sequence_length))

    def _update(self, sequence: Tuple[str, ...], reward: float) -> None:
        for position, pid in enumerate(sequence):
            pulls = self._pulls[position]
            means = self._means[position]
            pulls[pid] += 1
            means[pid] += (reward - means[pid]) / pulls[pid]

    # ------------------------------------------------------------------

    def run(self) -> SearchResult:
        baseline = self._score(self.base.clone())
        best_fitness = float("inf")
        best_sequence: Tuple[str, ...] = ()
        best_function = self.base.clone()
        history: List[float] = []
        for _ in range(self.episodes):
            sequence = self._build_sequence()
            fitness, func = self._evaluate(sequence)
            reward = (baseline - fitness) / max(baseline, 1.0)
            self._update(sequence, reward)
            if fitness < best_fitness:
                best_fitness = fitness
                best_sequence = sequence
                best_function = func
            history.append(best_fitness)
        return self._result(best_sequence, best_fitness, best_function, history)
