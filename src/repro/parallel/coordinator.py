"""The per-function process-pool coordinator.

:class:`ParallelEnumerator` enumerates a list of functions (one
:class:`EnumerationRequest` each) on at most ``jobs`` live worker
processes.  Each worker is a fresh process running one function's
unchanged serial :class:`~repro.core.enumeration.SpaceEnumerator`
(:mod:`repro.parallel.worker`), so every DAG comes from the serial code
and is bit-identical to a ``--jobs 1`` run by construction, at any
worker count and under any budget — the paper's Table 3 rows are
independent per-function enumerations.

The coordinator keeps what works per function: store hits and the warm
transition memo (learned transitions come back and are merged);
``run_dir/<label>.ckpt.json`` serial checkpoints, written by the
workers, for ``resume`` in either direction; the journal and manifest,
with one ``shard_done`` per enumerated function (a shard is one whole
function); and **leases** — a worker that dies or stops posting
heartbeats for ``lease_timeout`` is replaced and its function re-run
from its checkpoint, within a retry budget.  Fault injection is seeded
per function (run seed mixed with job id) and its stream position is
checkpointed, so a re-run draws the same faults.
"""

from __future__ import annotations

import multiprocessing
import os
import re
import signal
import threading
import time
from collections import deque
from multiprocessing.connection import wait as connection_wait
from typing import Dict, List, NamedTuple, Optional, Sequence

from repro.core import checkpoint as ckpt
from repro.core.dag import SpaceDAG
from repro.core.enumeration import (
    EnumerationConfig,
    EnumerationResult,
    root_instance,
)
from repro.ir.function import Function
from repro.observability import manifest as manifest_mod
from repro.observability.tracer import Tracer
from repro.parallel.merge import merge_shard
from repro.parallel.store import SpaceStore, cacheable, store_signature
from repro.parallel.telemetry import ProgressReporter
from repro.parallel.worker import worker_main
from repro.robustness.retry import RetryBudget

#: the EnumerationConfig switches a worker receives as plain values;
#: phases, program, fault injector, memo and checkpointing are rebuilt
#: per function on the worker side (see ``worker._config``)
_SETTINGS = (
    "max_level_sequences max_nodes max_levels time_limit exact remap "
    "validate difftest phase_timeout sanitize engine collapse"
).split()


class EnumerationRequest(NamedTuple):
    """One function to enumerate: a display label, the function, and —
    when differential testing is on — its program's mini-C source."""

    label: str
    function: Function
    source: Optional[str] = None


class ParallelConfig:
    """Tunables of the parallel service (the serial knobs stay on
    :class:`EnumerationConfig`)."""

    def __init__(
        self,
        jobs: Optional[int] = None,
        lease_timeout: float = 30.0,
        heartbeat_interval: float = 0.5,
        checkpoint_interval: float = 30.0,
        run_dir: Optional[str] = None,
        resume: bool = False,
        store: Optional[SpaceStore] = None,
        progress: Optional[ProgressReporter] = None,
        chaos: Optional[Dict] = None,
        start_method: Optional[str] = None,
        tracer: Optional[Tracer] = None,
    ):
        #: worker process count
        self.jobs = jobs if jobs is not None else (os.cpu_count() or 1)
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        #: seconds of heartbeat silence before a lease is reclaimed;
        #: must exceed the worst-case single-node expansion time
        self.lease_timeout = lease_timeout
        self.heartbeat_interval = heartbeat_interval
        #: seconds between a worker's periodic checkpoints (0 = after
        #: every node expansion)
        self.checkpoint_interval = checkpoint_interval
        #: directory for the persistent work journal (per-function
        #: checkpoints, telemetry JSONL); None disables persistence
        self.run_dir = run_dir
        #: continue from the per-function checkpoints found in run_dir
        self.resume = resume
        #: completed-space cache consulted before enumerating
        self.store = store
        #: telemetry sink (events + status line); caller-owned
        self.progress = progress
        #: test hook: {"worker": id, "after_nodes": n, "kind":
        #: "exit"|"hang"} — makes one worker fail mid-function, once
        self.chaos = chaos
        self.start_method = start_method
        #: observability tracer (journal + manifest); caller-owned.
        #: When None and a run_dir is set, the coordinator builds and
        #: owns one.
        self.tracer = tracer

    def resolve_start_method(self) -> str:
        if self.start_method is not None:
            return self.start_method
        env = os.environ.get("REPRO_START_METHOD")
        if env:
            return env
        methods = multiprocessing.get_all_start_methods()
        return "fork" if "fork" in methods else "spawn"


class _FunctionJob:
    """Coordinator-side state of one function's enumeration."""

    def __init__(
        self,
        job_id: int,
        request: EnumerationRequest,
        config: EnumerationConfig,
        parallel: ParallelConfig,
    ):
        self.job_id = job_id
        self.label = request.label
        self.request = request
        self.function_name = request.function.name
        #: the store key: the canonical root instance's node key
        _root, self.root_fingerprint, self.root_key = root_instance(
            request.function, config
        )
        safe_label = re.sub(r"[^A-Za-z0-9_.-]", "_", self.label)
        self.checkpoint_path = (
            os.path.join(parallel.run_dir, f"{safe_label}.ckpt.json")
            if parallel.run_dir
            else None
        )
        #: whether the caller asked to continue from a checkpoint
        self.resume = parallel.resume
        self.result: Optional[EnumerationResult] = None

    def failed(self, reason: str) -> EnumerationResult:
        """Its root alone, aborted: a function whose worker kept failing."""
        dag = SpaceDAG(self.function_name)
        fingerprint = self.root_fingerprint
        dag.add_node(self.root_key, 0, fingerprint.num_insts, fingerprint.cf_crc)
        self.result = EnumerationResult(dag, False, 0, 0, 0.0, reason)
        return self.result


class _Lease:
    """One live worker process and the function it is enumerating."""

    def __init__(self, job: _FunctionJob, process, channel):
        self.job = job
        self.process = process
        #: per-worker event channel.  Deliberately *not* shared: a
        #: worker killed mid-write can leave a multiprocessing.Queue's
        #: cross-process lock held forever, deadlocking every other
        #: worker's put().  A SimpleQueue with a single writer confines
        #: any damage to the dead worker's own channel.
        self.channel = channel
        self.last_heartbeat = time.monotonic()


class ParallelEnumerator:
    """Per-function multi-process exhaustive enumeration service."""

    #: a worker slot dying this often aborts the run (systemic failure)
    MAX_SLOT_DEATHS = 3
    #: a function's worker failing this often aborts the function
    MAX_SHARD_RETRIES = 2
    #: seconds a draining worker gets to write its final checkpoint
    DRAIN_GRACE = 5.0

    def __init__(
        self,
        config: Optional[EnumerationConfig] = None,
        parallel: Optional[ParallelConfig] = None,
    ):
        self.config = config if config is not None else EnumerationConfig()
        self.parallel = parallel if parallel is not None else ParallelConfig()
        self._check_supported(self.config)
        #: worker slot id -> its live lease
        self._leases: Dict[int, _Lease] = {}
        self._pending = deque()
        #: per-function re-run budget
        self._retries = RetryBudget(self.MAX_SHARD_RETRIES)
        #: worker respawn budget: one slot dying more than
        #: MAX_SLOT_DEATHS times is systemic, not transient
        self._respawns = RetryBudget(self.MAX_SLOT_DEATHS)
        self._chaos_armed = self.parallel.chaos is not None
        self._instances = 0
        self._ctx = None
        #: cross-run phase-transition memo (loaded from the store);
        #: None when the run is ineligible (exact, guarded, sabotaged)
        self._memo = None
        if self.parallel.run_dir:
            os.makedirs(self.parallel.run_dir, exist_ok=True)
        self._tracer = self.parallel.tracer
        self._owns_tracer = False
        if self._tracer is None and self.parallel.run_dir:
            # No caller-provided tracer: give the run dir its journal +
            # manifest here.
            self._tracer = self._build_tracer()
            self._owns_tracer = True

    def _build_tracer(self) -> Tracer:
        config, parallel = self.config, self.parallel
        seeds: Dict[str, object] = {}
        if config.fault_injector is not None:
            seeds["fault"] = config.fault_injector.seed
        manifest = manifest_mod.build_manifest(
            tool="repro.parallel",
            config=store_signature(config),
            seeds=seeds,
            extra={
                "jobs": parallel.jobs,
                "start_method": parallel.resolve_start_method(),
            },
        )
        tracer = Tracer(run_dir=parallel.run_dir, manifest=manifest)
        tracer.emit("run_start", tool="repro.parallel", jobs=parallel.jobs)
        return tracer

    @staticmethod
    def _check_supported(config: EnumerationConfig) -> None:
        if not config.share_prefixes:
            raise ValueError(
                "parallel enumeration requires share_prefixes=True "
                "(sequence-replay mode is a serial ablation)"
            )
        if config.checkpoint_path is not None or config.resume:
            raise ValueError(
                "use ParallelConfig(run_dir=..., resume=...) instead of "
                "EnumerationConfig checkpointing for parallel runs"
            )

    def enumerate(
        self, requests: Sequence[EnumerationRequest]
    ) -> List[EnumerationResult]:
        """Enumerate every requested function; results in request order."""
        ok = False
        try:
            results = self._enumerate(requests)
            ok = True
        finally:
            if self._owns_tracer and self._tracer is not None:
                self._tracer.close(ok=ok)
        return results

    def _enumerate(
        self, requests: Sequence[EnumerationRequest]
    ) -> List[EnumerationResult]:
        config, parallel = self.config, self.parallel
        if config.difftest or config.sanitize == "full":
            need = "difftest" if config.difftest else "sanitize=full"
            for request in requests:
                if request.source is None:
                    raise ValueError(
                        f"{need} requires program source for {request.label!r}"
                    )
        labels = set()
        for request in requests:
            if request.label in labels:
                raise ValueError(f"duplicate request label {request.label!r}")
            labels.add(request.label)
        self._emit("job_start", functions=len(requests), jobs=parallel.jobs)
        # Warm transition memo: hot-path shortcut for re-reached
        # instances.  Exact mode verifies rather than trusts, and
        # guarded runs must actually execute phases, so both stay cold.
        if (
            parallel.store is not None
            and not config.exact
            and not config.guards_enabled()
            and cacheable(config)
        ):
            self._memo = parallel.store.load_memo(config)
            if len(self._memo):
                self._emit("memo_loaded", entries=len(self._memo))
        jobs = [
            _FunctionJob(job_id, request, config, parallel)
            for job_id, request in enumerate(requests)
        ]
        for job in jobs:
            if parallel.store is not None:
                job.result = parallel.store.get(job.function_name, job.root_key, config)
            if job.result is not None:
                self._emit("cache_hit", function=job.label)
            else:
                self._pending.append(job)
        if self._pending:
            self._run_pool()
        if self._memo is not None:
            # Memo entries are per-transition facts, valid even from an
            # aborted run — persist whatever was learned.
            parallel.store.save_memo(config, self._memo)
            self._emit("memo_saved", **self._memo.stats())
        if parallel.progress is not None:
            parallel.progress.tick(force=True)
        self._emit(
            "job_done",
            instances=self._instances,
            functions=len(jobs),
            completed=sum(1 for job in jobs if job.result.completed),
        )
        return [job.result for job in jobs]

    def _task(self, job: _FunctionJob, retry: bool, chaos: bool) -> Dict:
        """Everything one worker needs, as picklable plain data."""
        config, parallel = self.config, self.parallel
        injector = config.fault_injector
        fault = injector and {
            # the run seed mixed with the job id: each function draws
            # its own stream, wherever and however often it runs
            "seed": (injector.seed * 1_000_003 + job.job_id) & 0x7FFFFFFF,
            "rate": injector.rate,
            "modes": list(injector.modes),
        }
        request = job.request
        return {
            "function": ckpt.function_to_dict(request.function),
            "source": request.source,
            "phases": "".join(phase.id for phase in config.phases),
            "settings": {name: getattr(config, name) for name in _SETTINGS},
            "fault": fault,
            "memo": self._memo,
            "checkpoint_path": job.checkpoint_path,
            "checkpoint_interval": parallel.checkpoint_interval,
            # a re-run continues from the lost worker's checkpoint
            "resume": job.resume or retry,
            "heartbeat_interval": parallel.heartbeat_interval,
            "chaos": dict(parallel.chaos) if chaos else None,
            "trace": self._tracer is not None or parallel.progress is not None,
        }

    def _start(self, worker_id: int, job: _FunctionJob) -> None:
        retry = self._retries.failures(job.job_id) > 0
        chaos = self._chaos_armed and self.parallel.chaos["worker"] == worker_id
        path = job.checkpoint_path
        if not retry and path is not None and os.path.exists(path):
            if job.resume:
                self._emit("job_restored", function=job.label, path=path)
            else:
                # A leftover from an earlier run must not be what a
                # re-run after a worker loss continues from.
                os.unlink(path)
        channel = self._ctx.SimpleQueue()
        process = self._ctx.Process(
            target=worker_main,
            args=(worker_id, self._task(job, retry, chaos), channel),
            daemon=True,
        )
        process.start()
        self._leases[worker_id] = _Lease(job, process, channel)
        self._emit(
            "shard_dispatch", shard=job.job_id, worker=worker_id, function=job.label
        )

    def _run_pool(self) -> None:
        self._ctx = multiprocessing.get_context(self.parallel.resolve_start_method())
        previous_sigterm = self._install_sigterm()
        try:
            self._drive()
        except KeyboardInterrupt:
            self._drain()
            raise
        finally:
            if previous_sigterm is not None:
                signal.signal(signal.SIGTERM, previous_sigterm)
            for lease in list(self._leases.values()):
                self._stop(lease.process)
            self._leases.clear()

    def _install_sigterm(self):
        """SIGTERM parity with ^C: an orchestrator shutdown takes the
        same graceful drain as KeyboardInterrupt (main thread only)."""
        if threading.current_thread() is not threading.main_thread():
            return None

        def _handler(signum, frame):
            raise KeyboardInterrupt

        return signal.signal(signal.SIGTERM, _handler)

    def _drain(self) -> None:
        """Ask every live worker to stop at its next phase attempt and
        write its final checkpoint; wait up to DRAIN_GRACE for them."""
        for lease in self._leases.values():
            lease.process.terminate()
        deadline = time.monotonic() + self.DRAIN_GRACE
        while time.monotonic() < deadline and any(
            lease.process.is_alive() for lease in self._leases.values()
        ):
            # read the stopping workers' results so none blocks on put
            for lease in self._leases.values():
                while not lease.channel.empty():
                    lease.channel.get()
            time.sleep(0.02)

    @staticmethod
    def _stop(process) -> None:
        process.join(1.0)
        if process.is_alive():
            process.terminate()
            process.join(2.0)
        if process.is_alive():
            process.kill()
            process.join()

    def _drive(self) -> None:
        parallel = self.parallel
        while self._pending or self._leases:
            for worker_id in range(parallel.jobs):
                if self._pending and worker_id not in self._leases:
                    self._start(worker_id, self._pending.popleft())
            waitables = []
            for lease in self._leases.values():
                waitables += [lease.channel._reader, lease.process.sentinel]
            # select()-based wakeup: react to the next event or worker
            # exit immediately instead of polling on a sleep cadence
            connection_wait(waitables, 0.05)
            for worker_id in list(self._leases):
                self._drain_events(worker_id)
            self._health()
            reporter = parallel.progress
            if reporter is not None:
                reporter.gauges(
                    queue_depth=len(self._pending) + len(self._leases),
                    busy=len(self._leases),
                    instances=self._instances,
                )
                reporter.tick()

    def _drain_events(self, worker_id: int) -> None:
        lease = self._leases.get(worker_id)
        # single reader: empty() == False guarantees get() returns
        while lease is not None and not lease.channel.empty():
            kind, _worker, payload = lease.channel.get()
            if kind == "heartbeat":
                lease.last_heartbeat = time.monotonic()
                continue
            # "result" or "shard_error": the worker is done either way
            del self._leases[worker_id]
            self._stop(lease.process)
            if kind == "result":
                self._finish(worker_id, lease.job, payload)
            elif payload["checkpoint_error"]:
                # a bad checkpoint is the caller's input, not a
                # transient failure: surface it like a serial run
                raise ckpt.CheckpointError(payload["checkpoint_error"])
            else:
                self._emit(
                    "shard_error",
                    shard=lease.job.job_id,
                    worker=worker_id,
                    error=payload["error"],
                )
                self._requeue(lease.job, payload["error"])
            return

    def _health(self) -> None:
        now = time.monotonic()
        for worker_id, lease in list(self._leases.items()):
            dead = not lease.process.is_alive()
            if dead:
                # a worker that posted its result and exited is done,
                # not lost: read what it left on its channel first
                self._drain_events(worker_id)
                if worker_id not in self._leases:
                    continue
            hung = now - lease.last_heartbeat > self.parallel.lease_timeout
            if not dead and not hung:
                continue
            del self._leases[worker_id]
            self._emit(
                "worker_dead" if dead else "lease_timeout",
                worker=worker_id,
                shard=lease.job.job_id,
            )
            # the lost worker must be gone (and its checkpoint lock
            # free) before its function runs again
            self._stop(lease.process)
            # A chaos fault fires once: after a loss, the recovery path
            # is what is being exercised.
            self._chaos_armed = False
            if not self._respawns.record_failure(worker_id):
                raise RuntimeError(
                    f"worker slot {worker_id} died "
                    f"{self._respawns.failures(worker_id)} times; "
                    "aborting the run (systemic failure)"
                )
            self._requeue(lease.job, "worker lost")

    def _requeue(self, job: _FunctionJob, why: str) -> None:
        if not self._retries.record_failure(job.job_id):
            self._conclude(job, job.failed(f"shard_failed: {why}"))
            return
        self._pending.appendleft(job)
        self._emit(
            "lease_reclaim",
            shard=job.job_id,
            retries=self._retries.failures(job.job_id),
            why=why,
        )

    def _finish(self, worker_id: int, job: _FunctionJob, payload: Dict) -> None:
        result = merge_shard(job, payload, self._memo)
        if self._retries.failures(job.job_id) and payload["resumed_from"]:
            self._emit("shard_resumed", shard=job.job_id, worker=worker_id)
        self._instances += len(result.dag)
        self._emit(
            "shard_done",
            shard=job.job_id,
            worker=worker_id,
            function=job.label,
            nodes=len(result.dag),
            attempts=result.attempted_phases,
            wall=round(payload["wall"], 4),
        )
        store = self.parallel.store
        if result.completed and store is not None:
            store.put(job.function_name, job.root_key, self.config, result)
        path = job.checkpoint_path
        if not result.completed and path is not None and os.path.exists(path):
            self._emit("checkpoint_write", path=path, function=job.label)
        if payload["phase_stats"]:
            self._emit("phase_stats", phases=payload["phase_stats"], function=job.label)
        if result.sanitize_stats:
            mode = self.config.sanitize
            stats = result.sanitize_stats
            self._emit("sanitize_stats", function=job.label, mode=mode, **stats)
        if result.collapse_stats is not None:
            self._emit("collapse_stats", function=job.label, **result.collapse_stats)
        self._conclude(job, result)

    def _conclude(self, job: _FunctionJob, result: EnumerationResult) -> None:
        self._emit(
            "function_done",
            function=job.label,
            instances=len(result.dag),
            levels=result.levels_completed,
            completed=result.completed,
            reason=result.abort_reason,
            wall=round(result.elapsed, 3),
        )

    def _emit(self, name: str, **fields) -> None:
        if self._tracer is not None:
            self._tracer.emit(name, **fields)
        if self.parallel.progress is not None:
            self.parallel.progress.event(name, **fields)


def enumerate_space_parallel(
    func: Function,
    config: Optional[EnumerationConfig] = None,
    parallel: Optional[ParallelConfig] = None,
    source: Optional[str] = None,
    label: Optional[str] = None,
) -> EnumerationResult:
    """Enumerate one function's space with the parallel service."""
    enumerator = ParallelEnumerator(config, parallel)
    request = EnumerationRequest(label or func.name, func, source)
    return enumerator.enumerate([request])[0]
