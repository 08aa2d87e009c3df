"""Hot-path engine tests: the zlib CRC, the analysis cache, the
single-clone fast path, and the phase-transition memo.

Every optimization here is only admissible because it is invisible:
each test pins some piece of the ``bit-identical to the slow path``
contract — zlib vs from-scratch CRC, cached vs recomputed analyses,
memoized vs real phase transitions.
"""

from __future__ import annotations

import json
import random
import zlib

import pytest
from hypothesis import given, strategies as st

from repro.core.crc import crc32, crc32_reference
from repro.core.enumeration import EnumerationConfig, enumerate_space
from repro.core.fingerprint import fingerprint_function
from repro.core.memo import MemoEntry, TransitionMemo
from repro.opt import (
    PHASES,
    apply_phase,
    attempt_phase_on_clone,
    implicit_cleanup,
)
from repro.analysis import set_paranoid
from repro.programs import PROGRAMS, compile_benchmark


def _all_seed_functions():
    """Every function of every bundled benchmark, canonicalized."""
    for bench_name in sorted(PROGRAMS):
        program = compile_benchmark(bench_name)
        for name, func in program.functions.items():
            clone = func.clone()
            implicit_cleanup(clone)
            yield f"{bench_name}.{name}", clone


def _mutated_functions(seed: int = 2006, count: int = 10, length: int = 6):
    """Functions randomly walked through the phase space (each step is
    a real phase application, so these cover post-optimization shapes:
    assigned registers, folded instructions, unrolled loops, ...)."""
    rng = random.Random(seed)
    pool = list(_all_seed_functions())
    for _ in range(count):
        label, func = pool[rng.randrange(len(pool))]
        func = func.clone()
        applied = []
        for _step in range(length):
            phase = PHASES[rng.randrange(len(PHASES))]
            if apply_phase(func, phase):
                applied.append(phase.id)
        yield f"{label}+{''.join(applied)}", func


def dag_snapshot(dag):
    return tuple(
        (
            node_id,
            dag.nodes[node_id].key,
            dag.nodes[node_id].level,
            dag.nodes[node_id].num_insts,
            dag.nodes[node_id].cf_crc,
            tuple(sorted(dag.nodes[node_id].active.items())),
            tuple(sorted(dag.nodes[node_id].dormant)),
            tuple(dag.nodes[node_id].parents),
        )
        for node_id in sorted(dag.nodes)
    )


def result_signature(result):
    return (
        dag_snapshot(result.dag),
        result.attempted_phases,
        result.phases_applied,
    )


# ----------------------------------------------------------------------
# zlib CRC == from-scratch table CRC
# ----------------------------------------------------------------------


@given(st.lists(st.binary(max_size=64), max_size=8))
def test_crc_chaining_matches_whole_buffer(chunks):
    # Both implementations chain: crc32(b, crc32(a)) == crc32(a+b).
    joined = b"".join(chunks)
    value = 0
    reference = 0
    for chunk in chunks:
        value = crc32(chunk, value)
        reference = crc32_reference(chunk, reference)
    assert value == crc32(joined) == zlib.crc32(joined)
    assert reference == crc32_reference(joined) == zlib.crc32(joined)


@given(st.binary(max_size=256), st.integers(min_value=0, max_value=0xFFFFFFFF))
def test_reference_crc_matches_zlib_with_seed(data, seed):
    assert crc32_reference(data, seed) == zlib.crc32(data, seed)


# ----------------------------------------------------------------------
# Analysis cache: invisible, and invalidation is complete
# ----------------------------------------------------------------------


#: (benchmark, function, node cap): descale's space completes; the
#: capped init_bits_table run adds loop unrolling (g), loop
#: transformations (l), code abstraction (n) and strength reduction (q)
PARANOID_SWEEP = (
    ("jpeg", "descale", None),
    ("bitcount", "init_bits_table", 300),
)


class TestAnalysisCache:
    def test_paranoid_mode_finds_no_stale_analyses(self):
        # Paranoid mode recomputes every cached object-IR analysis and
        # raises if one diverges, so an object-engine enumeration is a
        # sweep over every object phase's invalidation discipline.  The
        # flat engine caches no object analyses: it would check nothing.
        active = set()
        previous = set_paranoid(True)
        try:
            for bench_name, name, cap in PARANOID_SWEEP:
                func = compile_benchmark(bench_name).functions[name]
                result = enumerate_space(
                    func, EnumerationConfig(engine="object", max_nodes=cap)
                )
                assert result.completed or cap is not None, name
                for node in result.dag.nodes.values():
                    active.update(node.active)
        finally:
            set_paranoid(previous)
        assert set("bcghijklnqrsu") <= active


# ----------------------------------------------------------------------
# Single-clone fast path == clone + in-place apply_phase
# ----------------------------------------------------------------------


class TestSingleCloneFastPath:
    def test_matches_legacy_on_mutated_functions(self):
        for label, func in _mutated_functions(seed=7, count=6, length=4):
            for phase in PHASES:
                before = fingerprint_function(func, keep_text=True)
                fast = attempt_phase_on_clone(func.clone(), phase)
                slow = func.clone()
                if not apply_phase(slow, phase):
                    slow = None
                # dormant/active agreement, identical results, and the
                # parent untouched either way
                assert (fast is None) == (slow is None), (label, phase.id)
                if fast is not None:
                    assert fingerprint_function(
                        fast, keep_text=True
                    ) == fingerprint_function(slow, keep_text=True), (
                        label,
                        phase.id,
                    )
                    assert (fast.reg_assigned, fast.sel_applied, fast.alloc_applied) == (
                        slow.reg_assigned,
                        slow.sel_applied,
                        slow.alloc_applied,
                    )
                assert fingerprint_function(func, keep_text=True) == before

    def test_dormant_phase_never_mutates_parent(self):
        func = compile_benchmark("sha").functions["rol"]
        implicit_cleanup(func)
        before = fingerprint_function(func, keep_text=True)
        for phase in PHASES:
            attempt_phase_on_clone(func, phase)
            assert fingerprint_function(func, keep_text=True) == before, phase.id


# ----------------------------------------------------------------------
# Phase-transition memo
# ----------------------------------------------------------------------


@pytest.fixture()
def rol():
    func = compile_benchmark("sha").functions["rol"]
    implicit_cleanup(func)
    return func


class TestTransitionMemo:
    def test_cold_and_warm_runs_bit_identical(self, rol):
        baseline = enumerate_space(rol, EnumerationConfig())
        memo = TransitionMemo()
        cold = enumerate_space(rol, EnumerationConfig(memo=memo))
        assert len(memo) > 0
        warm = enumerate_space(rol, EnumerationConfig(memo=memo))
        assert (
            result_signature(baseline)
            == result_signature(cold)
            == result_signature(warm)
        )
        # the warm run never executed a phase: every transition hit
        assert memo.hits >= baseline.attempted_phases

    def test_exact_mode_verifies_and_passes(self, rol):
        memo = TransitionMemo()
        enumerate_space(rol, EnumerationConfig(memo=memo))
        exact = enumerate_space(rol, EnumerationConfig(memo=memo, exact=True))
        baseline = enumerate_space(rol, EnumerationConfig(exact=True))
        assert result_signature(exact) == result_signature(baseline)

    def test_exact_mode_raises_on_poisoned_entry(self, rol):
        memo = TransitionMemo()
        enumerate_space(rol, EnumerationConfig(memo=memo))
        # Flip one recorded dormancy: exact mode must notice.
        parent_key, phase_id = next(
            k for k, entry in memo.entries.items() if entry.dormant
        )
        memo.entries[(parent_key, phase_id)] = MemoEntry(
            dormant=False, key=("poisoned",), num_insts=1, cf_crc=1
        )
        with pytest.raises(RuntimeError, match="memo"):
            enumerate_space(rol, EnumerationConfig(memo=memo, exact=True))

    def test_json_round_trip(self, rol):
        memo = TransitionMemo()
        baseline = enumerate_space(rol, EnumerationConfig(memo=memo))
        restored = TransitionMemo.from_dict(
            json.loads(json.dumps(memo.to_dict()))
        )
        assert len(restored) == len(memo)
        warm = enumerate_space(rol, EnumerationConfig(memo=restored))
        assert result_signature(warm) == result_signature(baseline)

    def test_memo_ignored_under_guards(self, rol):
        # A guarded run must execute every phase for real.
        memo = TransitionMemo()
        enumerate_space(rol, EnumerationConfig(memo=memo))
        hits_before = memo.hits
        guarded = enumerate_space(
            rol, EnumerationConfig(memo=memo, validate=True)
        )
        assert guarded.completed
        assert memo.hits == hits_before

    def test_memo_shared_across_functions(self):
        # Content-keyed entries: enumerating f twice under one memo via
        # two *different* Function objects still hits.
        a = compile_benchmark("fft").functions["fcos"]
        b = compile_benchmark("fft").functions["fcos"]
        implicit_cleanup(a)
        implicit_cleanup(b)
        memo = TransitionMemo()
        first = enumerate_space(a, EnumerationConfig(memo=memo))
        misses_after_first = memo.misses
        second = enumerate_space(b, EnumerationConfig(memo=memo))
        assert memo.misses == misses_after_first
        assert result_signature(first) == result_signature(second)
