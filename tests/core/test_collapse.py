"""Semantic DAG collapse: the enumerator-level merge contract.

Four invariants on top of the canon-layer tests:

- **syntactic mode is untouched** — the default configuration never
  builds a collapser, never writes aliases, and keeps its checkpoint
  format byte-compatible;
- **semantic spaces only shrink** — node counts are bounded by the
  syntactic space, refuted merges stay zero, and collapsed DAGs still
  materialize, checkpoint, and resume bit-identically;
- **parallel equals serial** — the coordinator replays merge decisions
  in serial order, so a ``--jobs 2`` semantic DAG is bit-identical to
  the serial one;
- **aliases resolve** — a merged instance's syntactic key still looks
  up its representative node.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.core.checkpoint import dag_to_dict
from repro.core.enumeration import EnumerationConfig, enumerate_space
from repro.core.dag import materialize_instances
from repro.frontend import compile_source
from repro.opt import implicit_cleanup
from repro.parallel import (
    EnumerationRequest,
    ParallelConfig,
    ParallelEnumerator,
    enumerate_space_parallel,
)
from repro.programs import PROGRAMS
from tests.conftest import GCD_SRC, MAXI_SRC, compile_fn


def bench_function(bench, name):
    program = compile_source(PROGRAMS[bench].source)
    func = program.functions[name].clone()
    implicit_cleanup(func)
    return program, func


def dag_snapshot(dag):
    """Everything a collapsed DAG must reproduce bit-identically."""
    nodes = tuple(
        (
            node_id,
            dag.nodes[node_id].key,
            dag.nodes[node_id].level,
            dag.nodes[node_id].num_insts,
            tuple(sorted(dag.nodes[node_id].active.items())),
            tuple(sorted(dag.nodes[node_id].dormant)),
        )
        for node_id in range(len(dag.nodes))
    )
    aliases = tuple(sorted(dag.aliases.items(), key=repr))
    return nodes, aliases, tuple(sorted(dag.weights().items()))


@pytest.fixture(scope="module")
def rol():
    return bench_function("sha", "rol")


@pytest.fixture(scope="module")
def rol_syntactic(rol):
    _, func = rol
    return enumerate_space(func, EnumerationConfig())


@pytest.fixture(scope="module")
def rol_semantic(rol):
    program, func = rol
    return enumerate_space(
        func, EnumerationConfig(collapse="semantic", program=program)
    )


class TestConfig:
    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError, match="bad collapse mode"):
            EnumerationConfig(collapse="aggressive")

    def test_signature_separates_modes(self):
        syntactic = EnumerationConfig().signature()
        semantic = EnumerationConfig(collapse="semantic").signature()
        assert syntactic["collapse"] == "syntactic"
        assert semantic["collapse"] == "semantic"


class TestSyntacticUnchanged:
    def test_no_collapser_no_aliases_no_stats(self, rol_syntactic):
        assert rol_syntactic.collapse_stats is None
        assert rol_syntactic.dag.aliases == {}

    def test_checkpoint_has_no_collapse_keys(self, tmp_path, rol):
        from repro.core import checkpoint as ckpt

        _, func = rol
        path = str(tmp_path / "syntactic.ckpt")
        enumerate_space(
            func.clone(),
            EnumerationConfig(max_nodes=10, checkpoint_path=path),
        )
        state = ckpt.load_checkpoint(path)
        assert "collapse" not in state
        assert "aliases" not in state["dag"]


class TestSemanticCollapse:
    def test_space_only_shrinks(self, rol_syntactic, rol_semantic):
        assert len(rol_semantic.dag) <= len(rol_syntactic.dag)
        assert rol_semantic.completed

    def test_stats_reported_and_nothing_refuted(self, rol_semantic):
        stats = rol_semantic.collapse_stats
        assert stats is not None
        assert stats["refuted"] == 0
        assert stats["merged"] == (
            stats["merged_proved"] + stats["merged_tested"]
        )
        assert stats["merged"] > 0  # rol genuinely collapses

    def test_alias_lookup_resolves_to_representative(self, rol_semantic):
        dag = rol_semantic.dag
        assert dag.aliases  # rol produces at least one merge
        for key, rep_id in dag.aliases.items():
            node = dag.lookup(key)
            assert node is not None
            if key in dag.by_key:
                # A cycle-split instance shadows its stale alias: the
                # physically created node wins the lookup.
                assert node.node_id == dag.by_key[key]
            else:
                assert node.node_id == rep_id

    def test_collapsed_dag_is_acyclic(self, rol_semantic):
        # _topological_order raises on a cycle
        assert len(rol_semantic.dag._topological_order()) == len(
            rol_semantic.dag
        )

    def test_materialize_collapsed_instances(self, rol, rol_semantic):
        _, func = rol
        dag = rol_semantic.dag
        materialize_instances(dag, func.clone())
        assert all(
            node.function is not None for node in dag.nodes.values()
        )

    def test_exact_mode_composes(self):
        func = compile_fn(GCD_SRC, "gcd")
        result = enumerate_space(
            func, EnumerationConfig(collapse="semantic", exact=True)
        )
        assert result.completed
        assert result.collapse_stats["refuted"] == 0

    def test_deterministic(self, rol, rol_semantic):
        program, func = rol
        again = enumerate_space(
            func.clone(),
            EnumerationConfig(collapse="semantic", program=program),
        )
        assert dag_snapshot(again.dag) == dag_snapshot(rol_semantic.dag)
        assert again.collapse_stats == rol_semantic.collapse_stats


class TestPinnedSemanticSpaces:
    """Semantic spaces pinned value for value: the collapse counters
    and the DAG digest.  Every merge here is proved, so this pins the
    block-simulation prover shared with the translation validator."""

    @pytest.mark.parametrize(
        "bench,name,instances,stats,digest",
        [
            (
                "sha", "rol", 66,
                {"candidates": 58, "merged_proved": 2, "merged_tested": 0,
                 "split_unproven": 0, "split_cycle": 33, "split_size": 23,
                 "refuted": 0, "uncanonical": 0, "merged": 2, "classes": 10},
                "0b7a505574179502197818c351d8ec19320c7d766c3e691b91a28fff79f08bb0",
            ),
            (
                "jpeg", "descale", 32,
                {"candidates": 24, "merged_proved": 2, "merged_tested": 0,
                 "split_unproven": 0, "split_cycle": 11, "split_size": 11,
                 "refuted": 0, "uncanonical": 0, "merged": 2, "classes": 10},
                "c977377ab159e6a3d145b439b200fcd114b0c76d17f5c859a25ef372260a84d8",
            ),
        ],
    )
    def test_semantic_enumeration_pinned(
        self, bench, name, instances, stats, digest
    ):
        program, func = bench_function(bench, name)
        result = enumerate_space(
            func, EnumerationConfig(collapse="semantic", program=program)
        )
        payload = json.dumps(
            dag_to_dict(result.dag), sort_keys=True, separators=(",", ":")
        )
        assert result.completed
        assert len(result.dag) == instances
        assert result.collapse_stats == stats
        assert hashlib.sha256(payload.encode()).hexdigest() == digest


class TestCheckpointResume:
    def test_interrupted_resume_matches_uninterrupted(
        self, tmp_path, rol, rol_semantic
    ):
        program, func = rol
        path = str(tmp_path / "semantic.ckpt")
        cap = max(2, len(rol_semantic.dag) // 2)
        partial = enumerate_space(
            func.clone(),
            EnumerationConfig(
                collapse="semantic",
                program=program,
                max_nodes=cap,
                checkpoint_path=path,
            ),
        )
        assert not partial.completed
        resumed = enumerate_space(
            func.clone(),
            EnumerationConfig(
                collapse="semantic",
                program=program,
                checkpoint_path=path,
                resume=True,
            ),
        )
        assert resumed.completed
        assert resumed.resumed_from == path
        assert dag_snapshot(resumed.dag) == dag_snapshot(rol_semantic.dag)

    def test_mode_mismatch_rejected(self, tmp_path):
        func = compile_fn(MAXI_SRC, "maxi")
        path = str(tmp_path / "maxi.ckpt")
        enumerate_space(
            func.clone(),
            EnumerationConfig(max_nodes=5, checkpoint_path=path),
        )
        with pytest.raises(Exception):
            enumerate_space(
                func.clone(),
                EnumerationConfig(
                    collapse="semantic", checkpoint_path=path, resume=True
                ),
            )


class TestParallelEquivalence:
    def test_jobs2_bit_identical_to_serial(self, rol, rol_semantic):
        program, func = rol
        parallel = enumerate_space_parallel(
            func.clone(),
            EnumerationConfig(collapse="semantic", program=program),
            ParallelConfig(jobs=2),
        )
        assert parallel.completed
        assert dag_snapshot(parallel.dag) == dag_snapshot(rol_semantic.dag)
        assert parallel.collapse_stats == rol_semantic.collapse_stats

    def test_multi_request_stats(self, rol_semantic):
        program, func = bench_function("sha", "rol")
        results = ParallelEnumerator(
            EnumerationConfig(collapse="semantic"),
            ParallelConfig(jobs=2),
        ).enumerate(
            [
                EnumerationRequest(
                    "sha.rol", func, PROGRAMS["sha"].source
                )
            ]
        )
        assert results[0].collapse_stats is not None
        assert results[0].collapse_stats["refuted"] == 0
        assert dag_snapshot(results[0].dag) == dag_snapshot(rol_semantic.dag)
