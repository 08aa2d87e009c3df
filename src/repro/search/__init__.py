"""The search lab: non-exhaustive phase order search, benchmarked.

The paper's related work [14] searches phase orderings with a genetic
algorithm; its section 7 suggests probability-guided searching.  This
package grows both into a strategy zoo behind one
:class:`~repro.search.common.SearchStrategy` interface, prices
instances multi-objectively with :mod:`repro.search.cost`, and — the
part only an exhaustive-enumeration repo can do — scores every
strategy against the *known* optimum of the fully enumerated space
with :mod:`repro.search.harness` (``repro search-bench``).  See
docs/SEARCH.md.
"""

from repro.search.annealing import SimulatedAnnealer
from repro.search.bandit import POLICIES as BANDIT_POLICIES
from repro.search.bandit import BanditSearcher
from repro.search.common import (
    SearchResult,
    SearchStrategy,
    codesize_objective,
    dynamic_count_objective,
)
from repro.search.cost import (
    OBJECTIVES,
    PARETO_OBJECTIVES,
    CostModel,
    CostVector,
    instruction_cycles,
    instruction_energy,
    pareto_frontier,
    register_pressure,
)
from repro.search.genetic import GeneticSearcher
from repro.search.harness import (
    DEFAULT_OUT,
    QUICK_FUNCTIONS,
    SEED_FUNCTIONS,
    STRATEGY_BUILDERS,
    HarnessConfig,
    SeedFunction,
    format_leaderboard,
    quick_config,
    run_search_bench,
    write_leaderboard,
)
from repro.search.hillclimb import HillClimber
from repro.search.policy import TableDrivenPolicy
from repro.search.random_sampling import RandomSampler

__all__ = [
    "BANDIT_POLICIES",
    "BanditSearcher",
    "CostModel",
    "CostVector",
    "DEFAULT_OUT",
    "GeneticSearcher",
    "HarnessConfig",
    "HillClimber",
    "OBJECTIVES",
    "PARETO_OBJECTIVES",
    "QUICK_FUNCTIONS",
    "RandomSampler",
    "SEED_FUNCTIONS",
    "STRATEGY_BUILDERS",
    "SearchResult",
    "SearchStrategy",
    "SeedFunction",
    "SimulatedAnnealer",
    "TableDrivenPolicy",
    "codesize_objective",
    "dynamic_count_objective",
    "format_leaderboard",
    "instruction_cycles",
    "instruction_energy",
    "pareto_frontier",
    "quick_config",
    "register_pressure",
    "run_search_bench",
    "write_leaderboard",
]
