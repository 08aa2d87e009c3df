"""Tests for the shared SearchStrategy/SearchResult extraction."""

import pytest

from repro.search.common import (
    SearchResult,
    SearchStrategy,
    codesize_objective,
)
from tests.conftest import MAXI_SRC, compile_fn


def maxi():
    return compile_fn(MAXI_SRC, "maxi")


class TestBackwardCompat:
    def test_legacy_positional_construction(self):
        result = SearchResult(("c", "s"), 7.0, None, 3, 1, [9.0, 7.0])
        assert result.best_sequence == ("c", "s")
        assert result.best_fitness == 7.0
        assert result.evaluations == 3
        assert result.cache_hits == 1
        assert result.history == [9.0, 7.0]
        # search-lab fields default sanely for legacy callers
        assert result.strategy == "?"
        assert result.attempted_phases == 0

    def test_objectives_importable_from_old_home(self):
        from repro.search.genetic import (
            codesize_objective as legacy_codesize,
            dynamic_count_objective as legacy_dynamic,
        )

        assert legacy_codesize is codesize_objective
        assert legacy_dynamic is not None


class TestSearchResult:
    def test_to_dict_is_json_shaped(self):
        result = SearchResult(
            ("c", "s"), 7.0, None, 3, 1, [9.0, 7.0],
            strategy="test", attempted_phases=24,
        )
        assert result.to_dict() == {
            "strategy": "test",
            "sequence": "cs",
            "fitness": 7.0,
            "evaluations": 3,
            "cache_hits": 1,
            "attempted_phases": 24,
            "history": [9.0, 7.0],
        }


class TestSearchStrategy:
    def test_run_is_abstract(self):
        with pytest.raises(NotImplementedError):
            SearchStrategy(maxi()).run()

    def test_apply_counts_every_attempt(self):
        strategy = SearchStrategy(maxi())
        strategy._apply(("c", "s", "c"))
        assert strategy.attempted_phases == 3

    def test_score_caches_by_instance_fingerprint(self):
        strategy = SearchStrategy(maxi(), codesize_objective)
        first = strategy._score(maxi())
        second = strategy._score(maxi())
        assert first == second
        assert strategy.evaluations == 1
        assert strategy.cache_hits == 1

    def test_base_is_cloned(self):
        func = maxi()
        strategy = SearchStrategy(func)
        strategy._apply(tuple("cshuk"))
        # searching must never mutate the caller's function
        assert func.num_instructions() == maxi().num_instructions()

    def test_result_carries_strategy_accounting(self):
        strategy = SearchStrategy(maxi())
        fitness, func = strategy._evaluate(("c",))
        result = strategy._result(("c",), fitness, func, [fitness])
        assert result.strategy == "strategy"
        assert result.attempted_phases == 1
        assert result.evaluations == strategy.evaluations
