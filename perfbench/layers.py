"""Per-layer timing and counts for the traced run, taken from outside.

Each layer is timed by wrapping its public entry points where their
callers bind them: every ``repro`` module global that names the
original function is pointed at the wrapper (and a method is replaced
on its class, a kernel's ``run`` on its instance).  Spans nest; a
layer's *self time* is its wall minus the spans it calls, so self
times add up to the traced wall, and ``trace.coverage`` says how much
of it they account for.  Outcome and cache counts come from the
program's own ``Tracer`` (``phase_stats`` and ``shard_done`` events)
and ``flat_pool_stats()``; the sanitizer counters from each result.

Every per-layer ``*_s`` metric is self time in seconds summed over one
round, measured in the round process.  A layer a workload never
enters reports 0; on ``study_jobs2`` the phase work runs in the worker
processes and shows up as ``parallel.worker_busy_s`` instead.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
from time import perf_counter
from typing import Callable, Dict, List, Tuple, Union

PHASE_IDS = "bcdghijklnoqrsu"
#: the phases with a flat kernel (g and l fall back to the object IR)
KERNEL_IDS = "bcdhijknoqrsu"
ANALYSES = ("cfg", "liveness", "frame_refs", "slot_liveness", "dominators",
            "loops")

#: (module, attribute) -> layer, for module-level functions
FUNCTIONS: Dict[Tuple[str, str], str] = {
    ("repro.ir.flat", "to_flat"): "ir.flat.to_flat_s",
    ("repro.ir.flat", "from_flat"): "ir.flat.from_flat_s",
    ("repro.ir.flat", "flat_fingerprint"): "ir.flat.fingerprint_s",
    ("repro.opt.flat.cleanup", "flat_implicit_cleanup"): "opt.flat.cleanup_s",
    ("repro.analysis.flat", "build_flat_cfg"): "analysis.flat.cfg_s",
    ("repro.analysis.flat", "compute_flat_liveness"): "analysis.flat.liveness_s",
    ("repro.analysis.flat", "compute_flat_frame_refs"): "analysis.flat.frame_refs_s",
    ("repro.analysis.flat", "compute_flat_slot_liveness"):
        "analysis.flat.slot_liveness_s",
    ("repro.analysis.flat", "compute_flat_dominators"): "analysis.flat.dominators_s",
    ("repro.analysis.flat", "find_flat_loops"): "analysis.flat.loops_s",
    ("repro.opt.cleanup", "implicit_cleanup"): "opt.cleanup_s",
    ("repro.ir.cfg", "build_cfg"): "analysis.cfg_s",
    ("repro.analysis.liveness", "compute_liveness"): "analysis.liveness_s",
    ("repro.analysis.framerefs", "compute_frame_refs"): "analysis.frame_refs_s",
    ("repro.analysis.liveness", "compute_slot_liveness"): "analysis.slot_liveness_s",
    ("repro.analysis.dominators", "compute_dominators"): "analysis.dominators_s",
    ("repro.analysis.loops", "find_natural_loops"): "analysis.loops_s",
    ("repro.core.fingerprint", "fingerprint_function"): "core.fingerprint_s",
    ("repro.core.enumeration", "enumerate_space"): "core.enumeration.self_s",
    ("repro.core.interactions", "analyze_interactions"): "core.interactions_s",
    ("repro.parallel.merge", "merge_shard"): "parallel.merge_s",
}

#: (module, attribute) -> layer prefix, for phase attempts keyed by the
#: phase argument's id
PHASE_FUNCTIONS: Dict[Tuple[str, str], str] = {
    ("repro.opt.flat", "attempt_phase_on_flat"): "opt.flat.attempt_s.",
    ("repro.opt.base", "attempt_phase_on_clone"): "opt.attempt_s.",
    ("repro.opt.base", "apply_phase"): "opt.attempt_s.",
}

#: (module, class, method) -> layer
METHODS: Dict[Tuple[str, str, str], str] = {
    ("repro.staticanalysis.checker", "EdgeChecker", "check_edge"):
        "staticanalysis.check_s",
    ("repro.robustness.guard", "GuardedPhaseRunner", "apply"):
        "robustness.guard_s",
    ("repro.parallel.coordinator", "ParallelEnumerator", "enumerate"):
        "parallel.coordinator_s",
    ("repro.core.batch", "BatchCompiler", "compile"): "core.batch.compile_s",
    ("repro.core.probabilistic", "ProbabilisticCompiler", "compile"):
        "core.probabilistic.compile_s",
    ("repro.vm.interpreter", "Interpreter", "run"): "vm.run_s",
}


def _names() -> List[Tuple[str, str]]:
    """Every per-layer metric, in report order, with its unit."""
    s, n, r = "s", "count", "ratio"
    out = [("frontend.compile_s", s)]
    out += [("ir.flat.to_flat_s", s), ("ir.flat.from_flat_s", s),
            ("ir.flat.from_flat_calls", n), ("ir.flat.fingerprint_s", s),
            ("ir.flat.pool_instructions", n), ("ir.flat.pool_blocks", n)]
    out += [(f"opt.flat.attempt_s.{p}", s) for p in PHASE_IDS]
    out += [(f"opt.flat.kernel_s.{p}", s) for p in KERNEL_IDS]
    out += [("opt.flat.cleanup_s", s)]
    out += [(f"opt.active_ratio.{p}", r) for p in PHASE_IDS]
    out += [(f"analysis.flat.{a}_s", s) for a in ANALYSES]
    out += [("analysis.flat.cache_hit_ratio", r)]
    out += [(f"opt.attempt_s.{p}", s) for p in PHASE_IDS]
    out += [("opt.cleanup_s", s)]
    out += [(f"analysis.{a}_s", s) for a in ANALYSES]
    out += [("analysis.cache_hit_ratio", r), ("core.fingerprint_s", s)]
    out += [("staticanalysis.check_s", s), ("staticanalysis.edges_checked", n),
            ("staticanalysis.findings", n),
            ("staticanalysis.transval_proved_ratio", r),
            ("robustness.guard_s", s)]
    out += [("core.enumeration.self_s", s), ("core.enumeration.active_ratio", r),
            ("core.enumeration.merge_ratio", r), ("core.interactions_s", s)]
    out += [("parallel.coordinator_s", s), ("parallel.merge_s", s),
            ("parallel.worker_busy_s", s), ("parallel.worker_util", r),
            ("parallel.shards", n), ("parallel.node_overshoot", n)]
    out += [("core.batch.compile_s", s), ("core.batch.attempted", n),
            ("core.probabilistic.compile_s", s),
            ("core.probabilistic.attempted", n),
            ("core.probabilistic.attempted_ratio", r),
            ("core.probabilistic.code_size_ratio", r),
            ("core.probabilistic.dyn_insts_ratio", r),
            ("vm.run_s", s), ("vm.dyn_insts", n)]
    out += [("trace.overhead_frac", r), ("trace.coverage", r), ("failed_frac", r)]
    return out


#: every per-layer metric name -> unit (BENCHMARK.json lists the same)
PER_LAYER: Dict[str, str] = dict(_names())


class Spans:
    """Nested wall-clock spans, accumulated per layer as self time."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self._stack: List[List[float]] = []
        self.enabled = True
        # Forked workers inherit the wrappers; their spans would never
        # be read, so they run unwrapped.
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self) -> None:
        self.enabled = False

    def wrap(self, fn: Callable, layer: Union[str, Callable]) -> Callable:
        """*fn* timed as *layer*, or as ``layer(args)`` when callable."""
        stack, self_s, calls = self._stack, self.self_s, self.calls
        keyed = callable(layer)

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            name = layer(args) if keyed else layer
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                self_s[name] = self_s.get(name, 0.0) + elapsed - frame[0]
                calls[name] = calls.get(name, 0) + 1
                if stack:
                    stack[-1][0] += elapsed

        return timed


def rebind(original: Callable, replacement: Callable) -> int:
    """Point every ``repro`` module global bound to *original* at
    *replacement*; returns how many bindings changed."""
    changed = 0
    for module_name, module in list(sys.modules.items()):
        if module is None or module_name.split(".")[0] != "repro":
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                changed += 1
    return changed


class HitCounter:
    """Counts one analysis cache's hits and misses by wrapping its
    ``_note(hit)`` hook (the tracer only keeps the combined total)."""

    def __init__(self, module_name: str) -> None:
        module = importlib.import_module(module_name)
        original = module._note
        self.hits = self.misses = 0

        def note(hit: bool) -> None:
            if hit:
                self.hits += 1
            else:
                self.misses += 1
            original(hit)

        module._note = note

    def ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class Recorder:
    """Everything the traced run installs, and the metrics it yields."""

    def __init__(self) -> None:
        from repro.observability import tracer as obs
        from repro.opt.flat import FLAT_KERNELS

        modules = {m for m, _ in FUNCTIONS} | {m for m, _ in PHASE_FUNCTIONS}
        modules |= {m for m, _, _ in METHODS}
        # Import every module a workload may reach before rebinding, so
        # no module binds an original after the wrappers are in place.
        for name in sorted(modules):
            importlib.import_module(name)
        self.spans = Spans()
        for (module, attr), layer in FUNCTIONS.items():
            self._rebind(module, attr, layer)
        for (module, attr), prefix in PHASE_FUNCTIONS.items():
            names = {p: prefix + p for p in PHASE_IDS}
            self._rebind(module, attr, lambda args, n=names: n[args[1].id])
        for (module, cls_name, method), layer in METHODS.items():
            cls = getattr(importlib.import_module(module), cls_name)
            setattr(cls, method, self.spans.wrap(getattr(cls, method), layer))
        for phase_id, kernel in FLAT_KERNELS.items():
            kernel.run = self.spans.wrap(kernel.run,
                                         f"opt.flat.kernel_s.{phase_id}")
        self.flat_hits = HitCounter("repro.analysis.flat")
        self.object_hits = HitCounter("repro.analysis.cache")
        self.phase_counts: Dict[str, Dict[str, int]] = {}
        self.shard_walls: List[float] = []
        self.tracer = obs.Tracer()
        self.tracer.subscribe(self._on_event)
        obs.install(self.tracer)

    def _rebind(self, module: str, attr: str, layer) -> None:
        original = getattr(importlib.import_module(module), attr)
        if not rebind(original, self.spans.wrap(original, layer)):
            raise RuntimeError(f"{module}.{attr} is bound nowhere")

    def _on_event(self, name: str, **fields) -> None:
        if name == "phase_stats":
            for phase_id, counts in fields["phases"].items():
                row = self.phase_counts.setdefault(phase_id, {})
                for outcome, count in counts.items():
                    row[outcome] = row.get(outcome, 0) + count
        elif name == "shard_done":
            self.shard_walls.append(fields["wall"])

    def metrics(self, out: dict, setup: dict, jobs: int) -> Dict[str, float]:
        """Per-layer metrics of one traced round (*out* is its result);
        ``run.py`` fills the ones that need goldens or other rounds."""
        from repro.ir.flat import flat_pool_stats

        m = dict.fromkeys(PER_LAYER, 0)
        for name, value in self.spans.self_s.items():
            m[name] = value
        m["frontend.compile_s"] = setup["compile_s"]
        m["ir.flat.from_flat_calls"] = self.spans.calls.get(
            "ir.flat.from_flat_s", 0)
        pools = flat_pool_stats()
        m["ir.flat.pool_instructions"] = pools["instructions"]
        m["ir.flat.pool_blocks"] = pools["blocks"]
        for phase_id, counts in self.phase_counts.items():
            tried = counts.get("active", 0) + counts.get("dormant", 0)
            if tried:
                m[f"opt.active_ratio.{phase_id}"] = counts.get("active", 0) / tried
        # The tracer counts both caches together; the split must add up.
        hits = self.flat_hits.hits + self.object_hits.hits
        misses = self.flat_hits.misses + self.object_hits.misses
        if (hits, misses) != (self.tracer.analysis_hits,
                              self.tracer.analysis_misses):
            raise RuntimeError("analysis cache counts disagree with the tracer")
        m["analysis.flat.cache_hit_ratio"] = self.flat_hits.ratio()
        m["analysis.cache_hit_ratio"] = self.object_hits.ratio()
        sanitize = out.get("sanitize", {})
        m["staticanalysis.edges_checked"] = sanitize.get("edges", 0)
        m["staticanalysis.findings"] = sanitize.get("findings", 0)
        verdicts = sum(sanitize.get(k, 0)
                       for k in ("proved", "tested", "unverified", "refuted"))
        if verdicts:
            m["staticanalysis.transval_proved_ratio"] = (
                sanitize["proved"] / verdicts)
        rows = out["functions"]
        if "digest" in rows[0]:
            attempted = sum(r["edges"] for r in rows)
            active = sum(r["active_edges"] for r in rows)
            created = sum(r["instances"] - 1 for r in rows)
            m["core.enumeration.active_ratio"] = active / attempted
            m["core.enumeration.merge_ratio"] = (
                (active - created) / active if active else 0.0)
        if self.shard_walls:
            busy = sum(self.shard_walls)
            m["parallel.worker_busy_s"] = busy
            m["parallel.worker_util"] = busy / (jobs * out["wall_s"])
            m["parallel.shards"] = len(self.shard_walls)
        table7 = out.get("table7")
        if table7 is not None:
            m["core.batch.attempted"] = table7["batch_attempted"]
            m["core.probabilistic.attempted"] = table7["prob_attempted"]
            m["core.probabilistic.attempted_ratio"] = table7["prob_attempted_ratio"]
            m["core.probabilistic.code_size_ratio"] = table7["prob_code_size_ratio"]
            m["core.probabilistic.dyn_insts_ratio"] = table7["prob_dyn_insts_ratio"]
            m["vm.dyn_insts"] = table7["dyn_insts"]
        m["trace.coverage"] = sum(self.spans.self_s.values()) / out["wall_s"]
        return m
