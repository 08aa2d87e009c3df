"""Tests for the guarded phase runner and differential tester."""

import hashlib
import json
import time

import pytest

from repro.core.batch import BatchCompiler
from repro.core.checkpoint import dag_to_dict
from repro.core.enumeration import EnumerationConfig, enumerate_space
from repro.core.fingerprint import fingerprint_function
from repro.frontend import compile_source
from repro.ir.function import Function
from repro.ir.instructions import Assign
from repro.ir.operands import Const
from repro.opt import PHASES, implicit_cleanup
from repro.opt.base import Phase
from repro.programs import compile_benchmark
from repro.robustness.faults import FaultInjector
from repro.robustness.guard import (
    DifferentialTester,
    GuardedPhaseRunner,
    default_vectors,
)
from repro.robustness.quarantine import QuarantineLog, QuarantineRecord
from tests.conftest import MAXI_SRC, compile_fn

FIVE_SRC = "int five(void) { return 5; }"


class _RaisingPhase(Phase):
    id = "b"
    name = "raises"

    def run(self, func):
        raise ValueError("phase exploded")


class _HangingPhase(Phase):
    id = "b"
    name = "hangs"

    def run(self, func):
        time.sleep(10.0)
        return False


class _ConstTweakPhase(Phase):
    """Changes observable semantics while keeping the IR well-formed."""

    id = "b"
    name = "const tweak"

    def __init__(self):
        self.fired = False

    def run(self, func):
        if self.fired:
            return False
        for block in func.blocks:
            for i, inst in enumerate(block.insts):
                if isinstance(inst, Assign) and isinstance(inst.src, Const):
                    block.insts[i] = Assign(inst.dst, Const(inst.src.value + 1))
                    self.fired = True
                    return True
        return False


def _fp(func):
    return fingerprint_function(func).key


class TestExceptionContainment:
    def test_raising_phase_is_quarantined(self, maxi_func):
        guard = GuardedPhaseRunner()
        before = _fp(maxi_func)
        assert guard.apply(maxi_func, _RaisingPhase()) is None
        assert _fp(maxi_func) == before  # never mutated
        assert len(guard.quarantine) == 1
        record = guard.quarantine.records[0]
        assert record.kind == "exception"
        assert "ValueError" in record.detail

    def test_control_exceptions_propagate(self, maxi_func):
        class _Interrupting(Phase):
            id = "b"
            name = "interrupts"

            def run(self, func):
                raise KeyboardInterrupt

        guard = GuardedPhaseRunner()
        before = _fp(maxi_func)
        with pytest.raises(KeyboardInterrupt):
            guard.apply(maxi_func, _Interrupting())
        assert len(guard.quarantine) == 0
        assert _fp(maxi_func) == before


class TestTimeouts:
    def test_hanging_phase_is_quarantined(self, maxi_func):
        guard = GuardedPhaseRunner(phase_timeout=0.1)
        before = _fp(maxi_func)
        start = time.perf_counter()
        assert guard.apply(maxi_func, _HangingPhase()) is None
        assert time.perf_counter() - start < 5.0
        assert _fp(maxi_func) == before
        assert guard.quarantine.records[0].kind == "timeout"


class TestInjectedFaults:
    def test_injected_raise(self, maxi_func):
        from repro.opt import phase_by_id

        guard = GuardedPhaseRunner(
            fault_injector=FaultInjector(modes=("raise",), attempts={1})
        )
        before = _fp(maxi_func)
        assert guard.apply(maxi_func, phase_by_id("b")) is None
        assert _fp(maxi_func) == before
        assert guard.quarantine.records[0].kind == "exception"

    def test_injected_corruption_caught_even_without_validate(self, maxi_func):
        from repro.opt import phase_by_id

        guard = GuardedPhaseRunner(
            validate=False,
            fault_injector=FaultInjector(modes=("corrupt",), attempts={1}),
        )
        before = _fp(maxi_func)
        assert guard.apply(maxi_func, phase_by_id("b")) is None
        assert _fp(maxi_func) == before
        record = guard.quarantine.records[0]
        assert record.kind == "validation"
        assert record.diff is not None

    def test_injected_hang_hits_the_alarm(self, maxi_func):
        from repro.opt import phase_by_id

        guard = GuardedPhaseRunner(
            phase_timeout=0.1,
            fault_injector=FaultInjector(
                modes=("hang",), attempts={1}, hang_seconds=5.0
            ),
        )
        before = _fp(maxi_func)
        start = time.perf_counter()
        assert guard.apply(maxi_func, phase_by_id("b")) is None
        assert time.perf_counter() - start < 5.0
        assert _fp(maxi_func) == before
        assert guard.quarantine.records[0].kind == "timeout"

    def test_uninjected_applications_work_normally(self, maxi_func):
        from repro.opt import phase_by_id

        guard = GuardedPhaseRunner(
            fault_injector=FaultInjector(modes=("raise",), attempts=set())
        )
        before = _fp(maxi_func)
        # maxi has at least one active phase from the start
        changed = any(
            guard.apply(maxi_func, phase_by_id(pid)) is not None
            for pid in "bsiu"
        )
        assert changed
        assert len(guard.quarantine) == 0
        assert _fp(maxi_func) == before


class TestDifferentialTesting:
    def test_semantics_change_is_quarantined(self):
        program = compile_source(FIVE_SRC)
        func = program.functions["five"]
        from repro.opt import implicit_cleanup

        implicit_cleanup(func)
        tester = DifferentialTester(program, "five", default_vectors(func))
        guard = GuardedPhaseRunner(difftest=tester)
        before = _fp(func)
        assert guard.apply(func, _ConstTweakPhase()) is None
        assert _fp(func) == before
        record = guard.quarantine.records[0]
        assert record.kind == "semantics"
        assert "expected" in record.detail

    def test_honest_phases_pass_difftest(self, maxi_func):
        from repro.opt import phase_by_id

        program = compile_source(MAXI_SRC)
        tester = DifferentialTester(
            program, "maxi", default_vectors(program.functions["maxi"])
        )
        guard = GuardedPhaseRunner(difftest=tester)
        func = compile_fn(MAXI_SRC, "maxi")
        for pid in "bsiukch":
            before = _fp(func)
            candidate = guard.apply(func, phase_by_id(pid))
            assert _fp(func) == before
            if candidate is not None:
                func = candidate
        assert len(guard.quarantine) == 0

    def test_check_reports_mismatch_directly(self):
        program = compile_source(FIVE_SRC)
        func = program.functions["five"]
        from repro.opt import implicit_cleanup

        implicit_cleanup(func)
        tester = DifferentialTester(program, "five", default_vectors(func))
        assert tester.check(func.clone()) is None
        tweaked = func.clone()
        _ConstTweakPhase().run(tweaked)
        assert "expected" in tester.check(tweaked)

    def test_default_vectors_cover_arity(self, maxi_func):
        vectors = default_vectors(maxi_func)
        assert all(len(v) == len(maxi_func.params) for v in vectors)
        program = compile_source(FIVE_SRC)
        assert default_vectors(program.functions["five"]) == ((),)


@pytest.fixture
def clones(monkeypatch):
    """A running count of ``Function.clone`` calls."""
    count = [0]
    real = Function.clone

    def counting(func):
        count[0] += 1
        return real(func)

    monkeypatch.setattr(Function, "clone", counting)
    return count


def _sanitizing_guard():
    from repro.staticanalysis.checker import EdgeChecker

    return GuardedPhaseRunner(validate=True, sanitizer=EdgeChecker(mode="fast"))


class TestAttemptClones:
    """A guarded attempt clones like an unguarded one: at most one
    clone, none for an illegal phase, and the input never mutated."""

    @pytest.mark.parametrize(
        "make_guard",
        [
            lambda: GuardedPhaseRunner(validate=True),
            _sanitizing_guard,
            lambda: GuardedPhaseRunner(
                fault_injector=FaultInjector(modes=("raise",), attempts={1, 3})
            ),
            lambda: GuardedPhaseRunner(
                validate=False,
                fault_injector=FaultInjector(
                    modes=("corrupt",), attempts={1, 3}
                ),
            ),
        ],
        ids=["validate", "sanitize-fast", "fault-raise", "fault-corrupt"],
    )
    def test_at_most_one_clone_per_attempt(self, maxi_func, clones, make_guard):
        guard = make_guard()
        injector = guard.fault_injector
        before = _fp(maxi_func)
        illegal = 0
        for phase in PHASES:
            legal = phase.applicable(maxi_func)
            injected_before = injector.injected if injector else 0
            clones[0] = 0
            guard.apply(maxi_func, phase)
            injected = injector is not None and injector.injected > injected_before
            assert clones[0] <= 1, phase.id
            if not legal and not injected:
                illegal += 1
                assert clones[0] == 0, phase.id
            assert _fp(maxi_func) == before, phase.id
        assert illegal > 0  # k, g and l wait for selection/allocation
        if injector is not None:
            assert injector.injected == 2

    def test_guarded_enumeration_clones_once_per_attempt(self, clones):
        program = compile_benchmark("bitcount")
        func = program.functions["ntbl_bitcount"]
        implicit_cleanup(func)
        clones[0] = 0
        result = enumerate_space(
            func,
            EnumerationConfig(
                validate=True,
                fault_injector=FaultInjector(seed=2006, rate=0.05),
                sanitize="fast",
                program=program,
            ),
        )
        # one clone for the root instance, at most one per attempt
        assert clones[0] <= result.attempted_phases + 1


class TestPinnedParity:
    """Guarded enumerations under validation, seeded fault injection
    and the fast sanitizer, pinned value for value: the DAG digest,
    the quarantine breakdown, the fault stream and the sanitizer's
    edge count."""

    @pytest.mark.parametrize(
        "bench,name,instances,attempts,by_kind,injected,edges,digest",
        [
            (
                "bitcount", "ntbl_bitcount", 54, 696,
                {"exception": 13, "validation": 12}, 25, 126,
                "3e3ad1aa1be2f447",
            ),
            (
                "jpeg", "descale", 37, 481,
                {"exception": 8, "validation": 7}, 15, 86,
                "3e5b6252802daec2",
            ),
        ],
    )
    def test_guarded_enumeration_pinned(
        self, bench, name, instances, attempts, by_kind, injected, edges, digest
    ):
        program = compile_benchmark(bench)
        func = program.functions[name]
        implicit_cleanup(func)
        injector = FaultInjector(seed=2006, rate=0.05)
        result = enumerate_space(
            func,
            EnumerationConfig(
                validate=True,
                fault_injector=injector,
                sanitize="fast",
                program=program,
            ),
        )
        payload = json.dumps(
            dag_to_dict(result.dag), sort_keys=True, separators=(",", ":")
        )
        assert len(result.dag) == instances
        assert result.attempted_phases == attempts
        assert result.quarantine.by_kind() == by_kind
        assert (injector.applications, injector.injected) == (attempts, injected)
        assert result.sanitize_stats["edges"] == edges
        assert hashlib.sha256(payload.encode()).hexdigest().startswith(digest)


class TestGuardedCompilers:
    def test_batch_compiler_counts_quarantined(self, maxi_func):
        guard = GuardedPhaseRunner(
            fault_injector=FaultInjector(modes=("raise",), attempts={1, 3})
        )
        report = BatchCompiler(guard=guard).compile(maxi_func)
        assert report.quarantined == 2
        assert len(guard.quarantine) == 2

    def test_unguarded_report_defaults_to_zero(self, maxi_func):
        report = BatchCompiler().compile(maxi_func)
        assert report.quarantined == 0

    def test_probabilistic_compiler_survives_faults(
        self, maxi_func, small_interactions
    ):
        from repro.core.probabilistic import ProbabilisticCompiler

        guard = GuardedPhaseRunner(
            fault_injector=FaultInjector(modes=("raise",), attempts={1, 2})
        )
        report = ProbabilisticCompiler(
            small_interactions, guard=guard
        ).compile(maxi_func)
        assert report.quarantined == 2
        assert report.code_size > 0


class TestQuarantineLog:
    def test_report_counts_by_kind_and_phase(self):
        log = QuarantineLog()
        log.add(QuarantineRecord("b", "exception", "boom"))
        log.add(QuarantineRecord("b", "validation", "bad ir"))
        log.add(QuarantineRecord("s", "exception", "boom"))
        assert log.by_kind() == {"exception": 2, "validation": 1}
        assert log.by_phase() == {"b": 2, "s": 1}
        report = log.format_report()
        assert "3 phase application(s) rejected" in report
        assert "exception: 2" in report

    def test_empty_report(self):
        assert "no phase applications" in QuarantineLog().format_report()

    def test_dict_roundtrip(self):
        log = QuarantineLog()
        log.add(QuarantineRecord("b", "timeout", "slow", "node#3", 2, "diff"))
        restored = QuarantineLog.from_dicts(log.to_dicts())
        record = restored.records[0]
        assert (record.phase_id, record.kind, record.detail) == ("b", "timeout", "slow")
        assert (record.node_key, record.level, record.diff) == ("node#3", 2, "diff")

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError, match="bad quarantine kind"):
            QuarantineRecord("b", "meltdown", "oops")


class TestCooperativeDeadline:
    """The timeout policy off the main thread, where SIGALRM cannot be
    armed: the phase runs unsupervised but its result is rejected and
    quarantined after the fact."""

    @staticmethod
    def _apply_in_thread(guard, func, phase):
        import threading

        outcome = {}

        def target():
            outcome["candidate"] = guard.apply(func, phase)

        thread = threading.Thread(target=target)
        thread.start()
        thread.join()
        return outcome["candidate"]

    def test_slow_phase_rejected_off_main_thread(self):
        class _SlowConstTweak(_ConstTweakPhase):
            def run(self, func):
                time.sleep(0.2)
                return super().run(func)

        func = compile_fn(FIVE_SRC, "five")
        guard = GuardedPhaseRunner(phase_timeout=0.05)
        before = _fp(func)
        candidate = self._apply_in_thread(guard, func, _SlowConstTweak())
        assert candidate is None  # rejected despite "success"
        assert _fp(func) == before  # never mutated
        record = guard.quarantine.records[0]
        assert record.kind == "timeout"
        assert "cooperative" in record.detail

    def test_slow_dormant_phase_also_counts(self, maxi_func):
        class _SlowDormant(Phase):
            id = "b"
            name = "slow and dormant"

            def run(self, func):
                time.sleep(0.2)
                return False

        guard = GuardedPhaseRunner(phase_timeout=0.05)
        before = _fp(maxi_func)
        candidate = self._apply_in_thread(guard, maxi_func, _SlowDormant())
        assert candidate is None
        assert _fp(maxi_func) == before
        assert guard.quarantine.records[0].kind == "timeout"

    def test_fast_phase_passes_off_main_thread(self, maxi_func):
        from repro.opt import phase_by_id

        guard = GuardedPhaseRunner(phase_timeout=5.0)
        before = _fp(maxi_func)
        self._apply_in_thread(guard, maxi_func, phase_by_id("b"))
        assert len(guard.quarantine) == 0
        assert _fp(maxi_func) == before
