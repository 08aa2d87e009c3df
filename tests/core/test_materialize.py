"""Tests for rebuilding function instances on a bare (keyed-only) DAG."""

import pytest

from repro.core.dag import materialize_instances
from repro.core.enumeration import EnumerationConfig, enumerate_space
from repro.core.fingerprint import fingerprint_function
from repro.frontend import compile_source
from repro.opt import apply_phase, implicit_cleanup, phase_by_id
from repro.programs import compile_benchmark
from tests.conftest import MAXI_SRC, compile_fn

CLAMP_SRC = """
int clamp(int x) {
    if (x < 0) return 0;
    if (x > 255) return 255;
    return x;
}
"""

SOURCES = (
    (MAXI_SRC, "maxi"),
    (CLAMP_SRC, "clamp"),
)


def bare_and_kept(src, name):
    """Enumerate the same function twice: keys only, and with instances."""
    bare = enumerate_space(compile_fn(src, name), EnumerationConfig())
    kept = enumerate_space(compile_fn(src, name), EnumerationConfig())
    assert bare.completed and kept.completed
    materialize_instances(kept.dag, compile_fn(src, name))
    return bare, kept


class TestMaterialize:
    @pytest.mark.parametrize("src,name", SOURCES)
    def test_rebuilds_every_instance(self, src, name):
        bare, kept = bare_and_kept(src, name)
        assert all(node.function is None for node in bare.dag.nodes.values())
        applied = materialize_instances(bare.dag, compile_fn(src, name))
        assert all(
            node.function is not None for node in bare.dag.nodes.values()
        )
        # one phase application per non-root node (a spanning tree of
        # the DAG), even though many nodes have several in-edges
        assert applied == len(bare.dag.nodes) - 1

    @pytest.mark.parametrize("src,name", SOURCES)
    def test_replayed_instances_match_kept_enumeration(self, src, name):
        bare, kept = bare_and_kept(src, name)
        materialize_instances(bare.dag, compile_fn(src, name))
        assert set(bare.dag.nodes) == set(kept.dag.nodes)
        for node_id, node in bare.dag.nodes.items():
            twin = kept.dag.nodes[node_id]
            assert (
                node.function.num_instructions()
                == twin.function.num_instructions()
            ), node_id
            # and both match replaying one recorded phase sequence from
            # the root, independently of the topological walk
            replayed = compile_fn(src, name)
            for phase_id in bare.dag.creating_path(node_id):
                assert apply_phase(replayed, phase_by_id(phase_id))
            assert fingerprint_function(replayed) == fingerprint_function(
                node.function
            ), node_id

    def test_rejects_the_wrong_root(self):
        bare, _kept = bare_and_kept(MAXI_SRC, "maxi")
        stranger = compile_fn(CLAMP_SRC, "clamp")
        with pytest.raises(ValueError, match="root"):
            materialize_instances(bare.dag, stranger)

    def test_rejects_uncleaned_root(self):
        # the enumeration root is the post-cleanup function; handing in
        # the raw frontend output must fail loudly, not silently build
        # a space for a different program
        bare, _kept = bare_and_kept(MAXI_SRC, "maxi")
        raw = compile_source(MAXI_SRC).function("maxi")
        with pytest.raises(ValueError, match="implicit_cleanup"):
            materialize_instances(bare.dag, raw)

    def test_idempotent_on_an_already_kept_dag(self):
        _bare, kept = bare_and_kept(MAXI_SRC, "maxi")
        # nodes already carry functions: nothing to replay
        assert materialize_instances(kept.dag, compile_fn(MAXI_SRC, "maxi")) == 0

    def test_replays_each_nodes_creating_edge(self):
        # Node #705 of this capped space is reached by three in-edges
        # whose instances share its key but not their unremapped names
        # or label counter; only the creating edge rebuilds the instance
        # on which its recorded out-edges replay exactly.
        func = compile_benchmark("bitcount").functions["init_bits_table"]
        implicit_cleanup(func)
        result = enumerate_space(func, EnumerationConfig(max_nodes=2000))
        applied = materialize_instances(result.dag, func)
        assert applied == len(result.dag) - 1
        assert all(node.function is not None for node in result.dag.nodes.values())

    def test_does_not_mutate_the_callers_function(self):
        bare, _kept = bare_and_kept(MAXI_SRC, "maxi")
        root = compile_fn(MAXI_SRC, "maxi")
        before = root.num_instructions()
        materialize_instances(bare.dag, root)
        assert root.num_instructions() == before
