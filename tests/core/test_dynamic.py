"""Tests for dynamic-count inference from distinct control flows."""

import pytest

from repro.core.dag import materialize_instances
from repro.core.dynamic import DynamicCountOracle, MissingFunctionError
from repro.core.enumeration import EnumerationConfig, enumerate_space
from repro.frontend import compile_source
from repro.opt import implicit_cleanup
from repro.vm import Interpreter

SRC = """
int a[20];
int count_above(int limit) {
    int n = 0;
    int i;
    for (i = 0; i < 20; i++)
        if (a[i] > limit) n++;
    return n;
}
"""


def seed_and_run(interpreter):
    for i in range(20):
        interpreter.store_global("a", (i * 7) % 13, i)
    interpreter.run("count_above", (6,))


@pytest.fixture(scope="module")
def space():
    program = compile_source(SRC)
    func = program.function("count_above")
    implicit_cleanup(func)
    result = enumerate_space(
        func,
        EnumerationConfig(max_nodes=800, max_levels=6),
    )
    materialize_instances(result.dag, func)
    return program, result


class TestInference:
    def test_inferred_counts_match_real_executions(self, space):
        program, result = space
        oracle = DynamicCountOracle(program, "count_above", seed_and_run)
        for node in list(result.dag.nodes.values())[:60]:
            if node.function is None:
                continue
            inferred = oracle.dynamic_count(node)
            # measure directly
            trial = compile_source(SRC)
            trial.functions["count_above"] = node.function
            vm = Interpreter(trial, profile_blocks=True)
            for i in range(20):
                vm.store_global("a", (i * 7) % 13, i)
            actual = vm.run("count_above", (6,)).per_function["count_above"]
            assert inferred == actual, node.node_id

    def test_executions_bounded_by_control_flows(self, space):
        program, result = space
        oracle = DynamicCountOracle(program, "count_above", seed_and_run)
        oracle.price_space(result.dag)
        distinct_cfs = len(
            {
                node.cf_crc
                for node in result.dag.nodes.values()
                if node.function is not None
            }
        )
        assert oracle.executions == distinct_cfs
        assert oracle.executions < len(result.dag)

    def test_best_node_minimizes_dynamic_count(self):
        source = "int clamp(int x) { if (x < 0) return 0; if (x > 255) return 255; return x; }"
        program = compile_source(source)
        func = program.function("clamp")
        implicit_cleanup(func)
        result = enumerate_space(func, EnumerationConfig())
        assert result.completed and result.dag.leaves()
        materialize_instances(result.dag, func)
        oracle = DynamicCountOracle(
            program, "clamp", lambda vm: vm.run("clamp", (300,))
        )
        node, count = oracle.best_node(result.dag)
        prices = [
            oracle.dynamic_count(leaf)
            for leaf in result.dag.leaves()
            if leaf.function is not None
        ]
        assert count == min(prices)

    def test_requires_kept_functions(self, space):
        program, result = space
        oracle = DynamicCountOracle(program, "count_above", seed_and_run)
        bare = result.dag.root
        function = bare.function
        try:
            bare.function = None
            with pytest.raises(ValueError, match="materialize_instances"):
                oracle.dynamic_count(bare)
        finally:
            bare.function = function

    def test_missing_function_error_is_typed(self, space):
        program, result = space
        oracle = DynamicCountOracle(program, "count_above", seed_and_run)
        bare = result.dag.root
        function = bare.function
        try:
            bare.function = None
            with pytest.raises(MissingFunctionError) as excinfo:
                oracle.dynamic_count(bare)
        finally:
            bare.function = function
        # a ValueError subclass, so pre-existing handlers keep working,
        # and the message points at the fix
        assert issubclass(MissingFunctionError, ValueError)
        assert "materialize_instances" in str(excinfo.value)

    def test_count_for_matches_node_pricing(self, space):
        program, result = space
        oracle = DynamicCountOracle(program, "count_above", seed_and_run)
        node = result.dag.root
        assert (
            oracle.count_for(node.function, node.cf_crc)
            == oracle.dynamic_count(node)
        )


class TestBlockProfiling:
    def test_block_counts_recorded(self):
        program = compile_source(SRC)
        vm = Interpreter(program, profile_blocks=True)
        for i in range(20):
            vm.store_global("a", i, i)
        vm.run("count_above", (10,))
        counts = {
            label: count
            for (fname, label), count in vm.block_counts.items()
            if fname == "count_above"
        }
        func = program.function("count_above")
        entry_label = func.entry.label
        assert counts[entry_label] == 1
        assert max(counts.values()) >= 20  # the loop body

    def test_profiling_off_by_default(self):
        program = compile_source(SRC)
        vm = Interpreter(program)
        vm.run("count_above", (5,))
        assert vm.block_counts == {}
