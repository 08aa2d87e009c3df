"""SIGINT/SIGTERM parity: both signals request the same graceful stop.

An orchestrator shutdown (SIGTERM) must behave exactly like ^C: the
first signal lets the enumerator finish the current phase attempt,
write a checkpoint at an instance boundary, and report an
``interrupted`` abort; a second signal kills.  A later resume must
reach a DAG bit-identical to an uninterrupted run.
"""

import os
import signal

import pytest

from repro.core.enumeration import (
    EnumerationConfig,
    SpaceEnumerator,
    enumerate_space,
)
from repro.opt import PHASES, Phase
from repro.parallel.coordinator import ParallelEnumerator
from tests.conftest import GCD_SRC, compile_fn
from tests.core.test_abort_paths import assert_consistent_partial_dag
from tests.parallel.conftest import bench_function, dag_snapshot

GRACEFUL = (signal.SIGINT, signal.SIGTERM)


class _KillSwitch:
    """Fires one signal at this process after N phase executions."""

    def __init__(self, signum: int, after: int):
        self.signum = signum
        self.remaining = after

    def tick(self) -> None:
        self.remaining -= 1
        if self.remaining == 0:
            os.kill(os.getpid(), self.signum)


class _SignalingPhase(Phase):
    """Delegating wrapper that trips a kill switch on each execution.

    Same ``id`` as the wrapped phase, so the enumeration signature (and
    therefore checkpoint compatibility) is unchanged.
    """

    def __init__(self, wrapped: Phase, switch: _KillSwitch):
        self.wrapped = wrapped
        self.switch = switch
        self.id = wrapped.id
        self.name = wrapped.name
        self.requires_assignment = wrapped.requires_assignment
        self.contract_requires = wrapped.contract_requires
        self.contract_establishes = wrapped.contract_establishes
        self.contract_breaks = wrapped.contract_breaks

    def applicable(self, func):
        return self.wrapped.applicable(func)

    def run(self, func):
        self.switch.tick()
        return self.wrapped.run(func)


@pytest.fixture
def gcd_func():
    return compile_fn(GCD_SRC, "gcd")


def _restore(saved):
    for signum, previous in saved:
        signal.signal(signum, previous)


class TestHandlerInstallation:
    def test_both_signals_share_the_graceful_handler(self, gcd_func, tmp_path):
        config = EnumerationConfig(checkpoint_path=str(tmp_path / "c.json"))
        enum = SpaceEnumerator(gcd_func, config)
        saved = enum._install_signals()
        try:
            assert {signum for signum, _ in saved} == set(GRACEFUL)
            handler = signal.getsignal(signal.SIGINT)
            assert signal.getsignal(signal.SIGTERM) is handler
            assert callable(handler)
        finally:
            _restore(saved)

    def test_no_checkpoint_means_no_handlers(self, gcd_func):
        before = {signum: signal.getsignal(signum) for signum in GRACEFUL}
        enum = SpaceEnumerator(gcd_func, EnumerationConfig())
        assert enum._install_signals() == []
        for signum in GRACEFUL:
            assert signal.getsignal(signum) is before[signum]

    @pytest.mark.parametrize("signum", GRACEFUL)
    def test_first_signal_flags_second_signal_kills(
        self, gcd_func, tmp_path, signum
    ):
        config = EnumerationConfig(checkpoint_path=str(tmp_path / "c.json"))
        enum = SpaceEnumerator(gcd_func, config)
        saved = enum._install_signals()
        try:
            os.kill(os.getpid(), signum)
            assert enum._interrupted  # graceful: flag only, no raise
            with pytest.raises(KeyboardInterrupt):
                os.kill(os.getpid(), signum)
        finally:
            _restore(saved)

    def test_handlers_restored_after_run(self, gcd_func, tmp_path):
        before = {signum: signal.getsignal(signum) for signum in GRACEFUL}
        config = EnumerationConfig(
            checkpoint_path=str(tmp_path / "c.json"), max_levels=1
        )
        enumerate_space(gcd_func, config)
        for signum in GRACEFUL:
            assert signal.getsignal(signum) is before[signum]


class TestGracefulStopParity:
    @pytest.mark.parametrize("signum", GRACEFUL)
    def test_signal_checkpoints_and_resume_is_bit_identical(
        self, tmp_path, signum
    ):
        func = bench_function("sha", "rol")
        reference = enumerate_space(func, EnumerationConfig())
        assert reference.completed

        path = str(tmp_path / f"sig{signum}.ckpt.json")
        switch = _KillSwitch(signum, after=40)
        phases = tuple(_SignalingPhase(phase, switch) for phase in PHASES)
        interrupted = enumerate_space(
            func,
            EnumerationConfig(phases=phases, checkpoint_path=path),
        )
        assert switch.remaining <= 0, "enumeration ended before the signal"
        assert not interrupted.completed
        assert interrupted.abort_reason == "interrupted"
        assert_consistent_partial_dag(interrupted.dag)
        assert os.path.exists(path)

        resumed = enumerate_space(
            func,
            EnumerationConfig(checkpoint_path=path, resume=True),
        )
        assert resumed.completed
        assert resumed.resumed_from == path
        assert dag_snapshot(resumed.dag) == dag_snapshot(reference.dag)
        assert not os.path.exists(path)  # completed runs clean up


class TestCoordinatorSigterm:
    def test_sigterm_raises_keyboard_interrupt(self):
        enumerator = ParallelEnumerator()
        previous = enumerator._install_sigterm()
        assert previous is not None
        try:
            with pytest.raises(KeyboardInterrupt):
                os.kill(os.getpid(), signal.SIGTERM)
        finally:
            signal.signal(signal.SIGTERM, previous)
