"""Worker-process side of the parallel enumeration service.

Each worker is one fresh OS process that runs one function's serial
:class:`~repro.core.enumeration.SpaceEnumerator` — same engine, budgets
and checkpoints as a ``--jobs 1`` run — and posts the finished result
(:func:`repro.parallel.merge.function_payload`) on its private channel.
A fresh process per function keeps the flat IR's process-wide intern
pools from piling up across functions.

:class:`PooledEnumerator` adds, after every node expansion: a
heartbeat (at most one per ``heartbeat_interval``) for the lease
timeout; the fault injector's stream position, recorded in checkpoints
and re-drawn on resume, so a function re-run after its worker died
draws the same faults; and the ``chaos`` test hook, which checkpoints
and then kills (or hangs) the worker.  Workers stop gracefully on
SIGTERM only; SIGINT belongs to the coordinator.
"""

from __future__ import annotations

import os
import signal
import time
from typing import Callable, Dict, Optional

from repro.core import checkpoint as ckpt
from repro.core.enumeration import EnumerationConfig, SpaceEnumerator
from repro.frontend import compile_source
from repro.ir.function import Function
from repro.observability import tracer as obs
from repro.opt import phase_by_id
from repro.parallel.merge import function_payload
from repro.robustness.faults import FaultInjector


class PooledEnumerator(SpaceEnumerator):
    """The serial enumerator plus the pool's per-node hooks."""

    GRACEFUL_SIGNALS = (signal.SIGTERM,)

    def __init__(
        self,
        func: Function,
        config: EnumerationConfig,
        post: Callable[..., None],
        heartbeat_interval: float,
        chaos: Optional[Dict] = None,
    ):
        super().__init__(func, config)
        self._post = post
        self._heartbeat_interval = heartbeat_interval
        self._chaos = chaos
        self._nodes = 0
        self._last_heartbeat = time.monotonic()
        #: injector applications consumed up to the last instance
        #: boundary — the count a checkpoint's state corresponds to
        self._boundary_applications = 0

    def _maybe_checkpoint(self) -> None:
        # The serial loop calls this after every node expansion.
        injector = self.config.fault_injector
        if injector is not None:
            self._boundary_applications = injector.applications
        super()._maybe_checkpoint()
        self._nodes += 1
        now = time.monotonic()
        if now - self._last_heartbeat >= self._heartbeat_interval:
            self._last_heartbeat = now
            self._post("heartbeat", nodes=self._nodes)
        chaos = self._chaos
        if chaos and self._nodes >= chaos.get("after_nodes", 1):
            if self.config.checkpoint_path is not None:
                self._write_checkpoint()
            if chaos.get("kind", "exit") == "hang":
                time.sleep(3600.0)
            os._exit(137)

    def _state(self) -> Dict[str, object]:
        state = super()._state()
        if self.config.fault_injector is not None:
            state["injector_applications"] = self._boundary_applications
        return state

    def _restore_state(self, path: str, state: Dict[str, object]) -> float:
        consumed = super()._restore_state(path, state)
        injector = self.config.fault_injector
        if injector is not None:
            # Re-draw the checkpointed applications' decisions, in
            # order, consuming exactly the RNG state the earlier run did.
            for _ in range(state.get("injector_applications", 0)):
                if injector.should_inject():
                    injector.choose_mode(self.config.phase_timeout)
                    injector.injected += 1
            self._boundary_applications = injector.applications
        return consumed


def _config(task: Dict) -> EnumerationConfig:
    """The caller's EnumerationConfig, rebuilt in this process with the
    function's own checkpoint, fault injector and program context."""
    source = task["source"]
    fault = task["fault"]
    return EnumerationConfig(
        phases=[phase_by_id(phase_id) for phase_id in task["phases"]],
        program=compile_source(source) if source is not None else None,
        fault_injector=FaultInjector(**fault) if fault is not None else None,
        memo=task["memo"],
        checkpoint_path=task["checkpoint_path"],
        checkpoint_interval=task["checkpoint_interval"],
        resume=task["resume"],
        **task["settings"],
    )


def worker_main(worker_id: int, task: Dict, channel) -> None:
    """Worker process entry point: enumerate one function, post it."""

    def post(kind: str, **payload) -> None:
        channel.put((kind, worker_id, payload))

    # Not the coordinator's handlers a fork inherits: SIGTERM stops the
    # worker (gracefully once a checkpointing run installs its own).
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    # A fork-started worker inherits the coordinator's tracer and its
    # open journal; the coordinator is the journal's single writer, so
    # a worker only counts phase outcomes into a private tracer.
    tracer = obs.Tracer() if task["trace"] else None
    obs.ACTIVE = tracer
    try:
        config = _config(task)
        enumerator = PooledEnumerator(
            ckpt.function_from_dict(task["function"]),
            config,
            post,
            task["heartbeat_interval"],
            task["chaos"],
        )
        memo = config.memo
        mark = (len(memo), memo.hits, memo.misses) if memo is not None else None
        started = time.perf_counter()
        result = enumerator.run()
        wall = time.perf_counter() - started
        phase_stats = tracer.phase_counts if tracer is not None else None
        payload = function_payload(result, wall, phase_stats, memo, mark)
    except Exception as error:
        post(
            "shard_error",
            error=f"{type(error).__name__}: {error}",
            checkpoint_error=(
                str(error) if isinstance(error, ckpt.CheckpointError) else None
            ),
        )
        return
    post("result", **payload)
