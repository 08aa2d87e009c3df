"""End-to-end integration tests: the paper's core claims in miniature.

These tie the whole system together: frontend -> enumeration -> every
leaf instance of the space must be semantically identical, the DAG must
be consistent with phase replay, and the probabilistic compiler must be
trainable from enumerated data and then beat the batch compiler on
attempted phases at comparable code quality.
"""

import pytest

from repro.core.batch import BatchCompiler
from repro.core.dag import materialize_instances
from repro.core.enumeration import EnumerationConfig, enumerate_space
from repro.core.interactions import analyze_interactions
from repro.core.probabilistic import ProbabilisticCompiler
from repro.frontend import compile_source
from repro.opt import apply_phase, implicit_cleanup, phase_by_id
from repro.vm import Interpreter

CHECK_SRC = """
int clamp(int x) {
    if (x < 0) return 0;
    if (x > 255) return 255;
    return x;
}
"""


def enumerate_with_functions(source, name):
    program = compile_source(source)
    func = program.function(name)
    implicit_cleanup(func)
    result = enumerate_space(func, EnumerationConfig(exact=True))
    assert result.completed
    materialize_instances(result.dag, func)
    return program, func, result


class TestWholeSpaceSemantics:
    def test_every_instance_in_the_space_behaves_identically(self):
        program, func, result = enumerate_with_functions(CHECK_SRC, "clamp")
        inputs = [-5, 0, 100, 255, 999]
        expected = [
            Interpreter(program).run("clamp", (x,)).value for x in inputs
        ]
        assert expected == [0, 0, 100, 255, 255]
        for node in result.dag.nodes.values():
            assert node.function is not None
            trial = compile_source(CHECK_SRC)
            trial.functions["clamp"] = node.function
            got = [Interpreter(trial).run("clamp", (x,)).value for x in inputs]
            assert got == expected, f"node {node.node_id} diverges"

    def test_leaf_chosen_by_min_codesize_is_best_or_equal_to_batch(self):
        program, func, result = enumerate_with_functions(CHECK_SRC, "clamp")
        best = result.dag.min_codesize()
        batch_program = compile_source(CHECK_SRC)
        report = BatchCompiler().compile(batch_program.function("clamp"))
        # Exhaustive search finds the optimum; batch can only match it.
        assert best <= report.code_size

    def test_batch_result_is_an_instance_of_the_space(self):
        # The batch compiler only reorders the same phases, so its
        # output must be one of the enumerated instances — and a leaf
        # (batch runs to a fixpoint).
        program, func, result = enumerate_with_functions(CHECK_SRC, "clamp")
        batch_program = compile_source(CHECK_SRC)
        batch_func = batch_program.function("clamp")
        BatchCompiler().compile(batch_func)
        node = result.dag.find_instance(batch_func)
        assert node is not None
        assert node.is_leaf()

    def test_codesize_histogram_covers_all_leaves(self):
        program, func, result = enumerate_with_functions(CHECK_SRC, "clamp")
        histogram = result.dag.codesize_histogram()
        assert sum(histogram.values()) == len(result.dag.leaves())
        assert min(histogram) == result.dag.min_codesize()
        assert max(histogram) == result.dag.max_codesize()


class TestTrainedProbabilisticCompiler:
    def test_train_on_enumerations_then_compile(self, small_interactions):
        program = compile_source(CHECK_SRC)
        batch_report = BatchCompiler().compile(program.function("clamp"))

        program2 = compile_source(CHECK_SRC)
        prob_report = ProbabilisticCompiler(small_interactions).compile(
            program2.function("clamp")
        )
        assert prob_report.attempted < batch_report.attempted
        assert prob_report.code_size <= batch_report.code_size * 1.3
        for x in (-1, 7, 300):
            assert (
                Interpreter(program2).run("clamp", (x,)).value
                == Interpreter(program).run("clamp", (x,)).value
            )


class TestReplayConsistency:
    def test_random_dag_paths_replay_to_matching_fingerprints(self):
        from repro.core.fingerprint import fingerprint_function

        program, func, result = enumerate_with_functions(CHECK_SRC, "clamp")
        dag = result.dag
        # replay every edge out of the first two levels
        for node in list(dag.nodes.values()):
            if node.level > 1:
                continue
            for phase_id, child_id in node.active.items():
                replay = node.function.clone()
                assert apply_phase(replay, phase_by_id(phase_id))
                key = fingerprint_function(replay).key
                assert key == dag.nodes[child_id].key[0]
