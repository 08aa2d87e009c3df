"""Tests for the multi-objective cost model and Pareto frontiers."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.dag import materialize_instances
from repro.core.dynamic import DynamicCountOracle, MissingFunctionError
from repro.core.enumeration import EnumerationConfig, enumerate_space
from repro.frontend import compile_source
from repro.opt import implicit_cleanup
from repro.search.cost import (
    OBJECTIVES,
    CostModel,
    CostVector,
    instruction_cycles,
    instruction_energy,
    pareto_frontier,
    register_pressure,
)

SRC = """
int a[20];
int weighted(int scale) {
    int total = 0;
    int i;
    for (i = 0; i < 20; i++)
        total += a[i] * scale / 3;
    return total;
}
"""


def seed_and_run(interpreter):
    for i in range(20):
        interpreter.store_global("a", i + 1, i)
    interpreter.run("weighted", (7,))


@pytest.fixture(scope="module")
def space():
    program = compile_source(SRC)
    func = program.function("weighted")
    implicit_cleanup(func)
    result = enumerate_space(
        func,
        EnumerationConfig(max_nodes=800, max_levels=6),
    )
    materialize_instances(result.dag, func)
    return program, result


def vector(code_size=10, dynamic=100, cycles=150, energy=200, registers=5):
    return CostVector(code_size, dynamic, cycles, energy, registers)


class TestInstructionWeights:
    def test_multiplies_and_divides_cost_extra(self):
        func = compile_source("int f(int x) { return x * x / 3; }").function("f")
        costs = [
            instruction_cycles(inst)
            for block in func.blocks
            for inst in block.insts
        ]
        # at least one instruction carries the mul and div surcharges
        assert max(costs) > 1

    def test_memory_weighs_more_in_energy_than_cycles(self):
        program = compile_source("int g[4]; int f(void) { return g[1]; }")
        func = program.function("f")
        loads = [
            inst
            for block in func.blocks
            for inst in block.insts
            if inst.reads_memory()
        ]
        assert loads
        assert instruction_energy(loads[0]) > instruction_cycles(loads[0])

    def test_plain_instruction_costs_the_base(self):
        func = compile_source("int f(int x) { return x; }").function("f")
        costs = [
            (instruction_cycles(inst), instruction_energy(inst))
            for block in func.blocks
            for inst in block.insts
        ]
        assert min(cost for cost, _energy in costs) == 1


class TestRegisterPressure:
    def test_counts_distinct_hardware_registers(self):
        func = compile_source("int f(int x, int y) { return x + y; }").function("f")
        # the unoptimized function references at least its two argument
        # registers; pseudo registers must not count
        assert register_pressure(func) >= 2

    def test_optimization_changes_pressure(self, space):
        program, result = space
        values = {
            register_pressure(node.function)
            for node in result.dag.nodes.values()
            if node.function is not None
        }
        assert len(values) > 1


class TestCostModel:
    def test_dynamic_count_matches_oracle(self, space):
        program, result = space
        oracle = DynamicCountOracle(program, "weighted", seed_and_run)
        model = CostModel(oracle)
        for node in list(result.dag.nodes.values())[:40]:
            if node.function is None:
                continue
            assert (
                model.node_vector(node).dynamic_count
                == oracle.count_for(node.function, node.cf_crc)
            )

    def test_cycles_and_energy_dominate_dynamic_count(self, space):
        program, result = space
        model = CostModel(DynamicCountOracle(program, "weighted", seed_and_run))
        prices = model.price_leaves(result.dag)
        for vec in prices.values():
            # every executed instruction costs at least one cycle and
            # one energy unit, so the proxies bound the raw count
            assert vec.cycles >= vec.dynamic_count
            assert vec.energy >= vec.dynamic_count

    def test_multi_objective_pricing_costs_no_extra_executions(self, space):
        program, result = space
        oracle = DynamicCountOracle(program, "weighted", seed_and_run)
        model = CostModel(oracle)
        model.price_space(result.dag)
        distinct_cfs = len(
            {
                node.cf_crc
                for node in result.dag.nodes.values()
                if node.function is not None
            }
        )
        assert model.executions == distinct_cfs

    def test_optimum_breaks_ties_on_node_id(self):
        prices = {4: vector(code_size=3), 2: vector(code_size=3)}
        assert CostModel.optimum(prices, "code_size") == (2, 3)

    def test_optimum_rejects_unknown_objective(self):
        with pytest.raises(ValueError, match="bad objective"):
            CostModel.optimum({1: vector()}, "beauty")

    def test_optimum_rejects_empty_prices(self):
        with pytest.raises(ValueError, match="no priced nodes"):
            CostModel.optimum({}, "code_size")

    def test_missing_functions_raise_typed_error(self, space):
        program, result = space
        model = CostModel(DynamicCountOracle(program, "weighted", seed_and_run))
        bare_result = enumerate_space(
            compile_source(SRC).function("weighted"),
            EnumerationConfig(max_nodes=50, max_levels=2),
        )
        with pytest.raises(MissingFunctionError, match="materialize_instances"):
            model.price_space(bare_result.dag)
        with pytest.raises(ValueError, match="materialize_instances"):
            model.node_vector(bare_result.dag.root)


class TestParetoFrontier:
    def test_single_point_when_one_instance_dominates(self):
        prices = {
            1: vector(code_size=5, dynamic=50, energy=60, registers=3),
            2: vector(code_size=6, dynamic=60, energy=70, registers=4),
        }
        assert pareto_frontier(prices) == [(1, (5, 50, 60, 3))]

    def test_tradeoff_keeps_both_points(self):
        prices = {
            1: vector(code_size=5, dynamic=50, energy=60, registers=4),
            2: vector(code_size=6, dynamic=60, energy=70, registers=3),
        }
        frontier = pareto_frontier(prices)
        assert [node for node, _values in frontier] == [1, 2]

    def test_identical_points_collapse_to_lowest_node_id(self):
        prices = {
            7: vector(),
            3: vector(),
        }
        frontier = pareto_frontier(prices)
        assert frontier == [(3, (10, 100, 200, 5))]

    def test_no_frontier_point_is_dominated(self, space):
        program, result = space
        model = CostModel(DynamicCountOracle(program, "weighted", seed_and_run))
        prices = model.price_space(result.dag)
        frontier = pareto_frontier(prices)
        assert frontier
        points = [values for _node, values in frontier]
        for mine in points:
            for other in points:
                if other is mine:
                    continue
                dominates = all(o <= m for o, m in zip(other, mine)) and any(
                    o < m for o, m in zip(other, mine)
                )
                assert not dominates

    def test_custom_objectives_and_determinism(self):
        prices = {
            1: vector(code_size=5, dynamic=90),
            2: vector(code_size=9, dynamic=50),
            3: vector(code_size=9, dynamic=90),
        }
        frontier = pareto_frontier(prices, objectives=("code_size", "dynamic_count"))
        assert frontier == [(1, (5, 90)), (2, (9, 50))]
        assert frontier == pareto_frontier(
            prices, objectives=("code_size", "dynamic_count")
        )

    def test_rejects_unknown_objective(self):
        with pytest.raises(ValueError, match="bad objective"):
            pareto_frontier({1: vector()}, objectives=("karma",))

    def test_objectives_constant_is_consistent(self):
        assert set(CostVector._fields) == set(OBJECTIVES)


class TestStableTieBreak:
    """Identical cost points must dedupe by content key, not node id.

    Node ids are assignment-order artifacts — parallel merge order or
    semantic collapse renumber the same space — so a frontier computed
    with ``keys`` must pick the same representative under any
    renumbering of the ids.
    """

    def test_keys_override_node_id_order(self):
        prices = {3: vector(), 7: vector()}
        keys = {3: ("zzz",), 7: ("aaa",)}
        frontier = pareto_frontier(prices, keys=keys)
        assert frontier == [(7, (10, 100, 200, 5))]

    def test_without_keys_lowest_node_id_still_wins(self):
        prices = {9: vector(), 2: vector()}
        assert pareto_frontier(prices) == [(2, (10, 100, 200, 5))]

    @given(
        permutation=st.permutations(list(range(6))),
        duplicates=st.lists(
            st.integers(0, 3), min_size=6, max_size=6
        ),
    )
    @settings(deadline=None, max_examples=50)
    def test_frontier_invariant_under_node_renumbering(
        self, permutation, duplicates
    ):
        # six instances sharing at most four distinct cost points, each
        # carrying a content key that survives renumbering
        points = [
            vector(code_size=10 + bucket, registers=5 - bucket)
            for bucket in duplicates
        ]
        baseline_prices = {nid: points[nid] for nid in range(6)}
        baseline_keys = {nid: ("key", duplicates[nid], nid) for nid in range(6)}
        renumbered_prices = {
            permutation[nid]: points[nid] for nid in range(6)
        }
        renumbered_keys = {
            permutation[nid]: baseline_keys[nid] for nid in range(6)
        }
        baseline = pareto_frontier(baseline_prices, keys=baseline_keys)
        renumbered = pareto_frontier(
            renumbered_prices, keys=renumbered_keys
        )
        # map the renumbered frontier back through the permutation:
        # same points, same representatives (by key)
        inverse = {new: old for old, new in enumerate(permutation)}
        mapped = sorted(
            (inverse[node_id], values) for node_id, values in renumbered
        )
        assert mapped == sorted(baseline)
