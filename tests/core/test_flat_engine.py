"""The flat engine's contract: bit-identical DAGs, object-engine parity.

The flat expansion engine (``repro.opt.flat`` kernels over the packed
``repro.ir.flat`` representation) exists purely for speed — it must
never change *what* is enumerated.  These tests enumerate whole spaces
under both engines and require the full serialized DAGs to match, along
with every result statistic an engine could plausibly skew.  The
companion round-trip tests live in ``tests/ir/test_flat.py``.
"""

import pytest

from repro.core import checkpoint as ckpt
from repro.core import enumeration
from repro.core.enumeration import (
    EnumerationConfig,
    SpaceEnumerator,
    enumerate_space,
)
from repro.core.memo import TransitionMemo
from repro.ir.flat import FlatFunction
from repro.opt import implicit_cleanup, phase_by_id
from repro.programs import compile_benchmark
from repro.search.harness import SEED_FUNCTIONS

from tests.conftest import GCD_SRC, MAXI_SRC, SUM_ARRAY_SRC, compile_fn


def both_engines(func, **overrides):
    results = {}
    for engine in ("object", "flat"):
        results[engine] = enumerate_space(
            func.clone(), EnumerationConfig(engine=engine, **overrides)
        )
    return results["object"], results["flat"]


def assert_results_identical(obj, flat):
    assert ckpt.dag_digest(obj.dag) == ckpt.dag_digest(flat.dag)
    assert obj.attempted_phases == flat.attempted_phases
    assert obj.phases_applied == flat.phases_applied
    assert obj.completed == flat.completed
    assert obj.abort_reason == flat.abort_reason


class TestEngineParity:
    @pytest.mark.parametrize(
        "seed", SEED_FUNCTIONS, ids=[s.label for s in SEED_FUNCTIONS]
    )
    def test_seed_spaces_are_bit_identical(self, seed):
        func = compile_benchmark(seed.benchmark).functions[seed.function]
        implicit_cleanup(func)
        assert_results_identical(*both_engines(func))

    def test_small_function_spaces_are_bit_identical(self):
        assert_results_identical(*both_engines(compile_fn(MAXI_SRC, "maxi")))
        # gcd and sum_array have spaces in the thousands; a budget keeps
        # the test fast while still walking hundreds of shared nodes
        for source, name in ((GCD_SRC, "gcd"), (SUM_ARRAY_SRC, "sum_array")):
            obj, flat = both_engines(
                compile_fn(source, name), max_nodes=400
            )
            assert obj.abort_reason == "max_nodes"
            assert_results_identical(obj, flat)

    def test_bounded_enumeration_aborts_identically(self):
        # budget cutoffs must land on the same node under both engines
        func = compile_fn(SUM_ARRAY_SRC, "sum_array")
        obj, flat = both_engines(func, max_nodes=40)
        assert obj.abort_reason == "max_nodes"
        assert_results_identical(obj, flat)

    @pytest.mark.parametrize(
        "mode",
        [dict(share_prefixes=False), dict(remap=False)],
        ids=["replay", "no-remap"],
    )
    def test_replay_and_no_remap_spaces_are_bit_identical(self, mode):
        for bench, name in (("dijkstra", "next_rand"), ("jpeg", "rgb_to_cb")):
            func = compile_benchmark(bench).functions[name]
            implicit_cleanup(func)
            assert_results_identical(*both_engines(func, **mode))
        obj, flat = both_engines(
            compile_fn(SUM_ARRAY_SRC, "sum_array"), max_nodes=400, **mode
        )
        assert obj.abort_reason == "max_nodes"
        assert_results_identical(obj, flat)

    def test_memo_interop(self):
        # a memo filled by one engine serves the other bit-identically
        func = compile_fn(MAXI_SRC, "maxi")
        reference = enumerate_space(func.clone(), EnumerationConfig())
        memo = TransitionMemo()
        enumerate_space(
            func.clone(), EnumerationConfig(engine="object", memo=memo)
        )
        warm = enumerate_space(
            func.clone(), EnumerationConfig(engine="flat", memo=memo)
        )
        assert ckpt.dag_digest(warm.dag) == ckpt.dag_digest(reference.dag)


class TestEngineGate:
    def test_every_unguarded_mode_runs_flat(self):
        func = compile_fn(MAXI_SRC, "maxi")
        for mode in (
            dict(exact=True),
            dict(remap=False),
            dict(share_prefixes=False),
        ):
            assert SpaceEnumerator(func, EnumerationConfig(**mode)).flat_engine
        for mode in (dict(engine="object"), dict(validate=True)):
            config = EnumerationConfig(**mode)
            assert not SpaceEnumerator(func, config).flat_engine

    def test_exact_mode_checks_the_flat_fingerprint(self, monkeypatch):
        # exact mode renders every candidate with the object renderer
        # and must reject a flat fingerprint that disagrees with it
        real = enumeration.flat_fingerprint

        def perturbed(flat):
            fingerprint = real(flat)
            return fingerprint._replace(crc=fingerprint.crc ^ 1)

        monkeypatch.setattr(enumeration, "flat_fingerprint", perturbed)
        with pytest.raises(RuntimeError, match="fingerprints"):
            enumerate_space(
                compile_fn(MAXI_SRC, "maxi"), EnumerationConfig(exact=True)
            )

    def test_a_wrapped_phase_alone_takes_the_object_fallback(self):
        # kernels dispatch on phase.id, so an instrumented wrapper with
        # a stock id must run through the object-view fallback (and
        # never see a FlatFunction) while the stock phases keep their
        # kernels — and still produce the same space
        calls = []
        stock = phase_by_id("s")

        class Instrumented:
            def __getattr__(self, attr):
                return getattr(stock, attr)

            def applicable(self, func):
                assert not isinstance(func, FlatFunction)
                return stock.applicable(func)

            def run(self, func):
                calls.append(func.name)
                return stock.run(func)

        func = compile_fn(MAXI_SRC, "maxi")
        phases = tuple(
            Instrumented() if phase.id == "s" else phase
            for phase in EnumerationConfig().phases
        )
        config = EnumerationConfig(engine="flat", phases=phases)
        assert SpaceEnumerator(func, config).flat_engine
        result = enumerate_space(func.clone(), config)
        assert calls, "the wrapped phase never executed"
        reference = enumerate_space(func.clone(), EnumerationConfig())
        assert ckpt.dag_digest(result.dag) == ckpt.dag_digest(reference.dag)
