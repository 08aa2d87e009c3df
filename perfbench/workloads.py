"""The four study-set workloads: what each runs, why, and how it loads.

Every workload is closed-loop with one client: a single round process
submits work and waits for it, so a slower program simply receives
less work per second.  A *round* is one full pass over the workload's
inputs in a fresh process (cold caches and intern pools, as a user's
``repro`` run starts); ``run.py`` repeats rounds for the requested
seconds and reports medians.

Enumeration runs use a fixed ``max_nodes`` cap per workload and no
``time_limit``, so edge counts and DAGs repeat exactly and can be
compared against the committed goldens (``goldens.json``).  The caps
are sized so one round takes a few seconds on a 2-CPU host; each is
still large enough that some functions complete and others hit it.

The seed permutes the order in which functions (and, for
``table7_compile``, programs) are submitted.  DAGs are content-keyed,
so every golden must hold for every seed.  Per-function times are not:
content-keyed caches warmed by the functions before it make a
function's time depend on the order by up to a factor of two.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import time
from math import exp, log
from typing import Dict, List, NamedTuple, Optional

from hostprobe import HostProbe
from repro.core.checkpoint import dag_to_dict
from repro.core.enumeration import EnumerationConfig
from repro.ir.flat import flat_pool_stats
from repro.programs import PROGRAMS, all_study_functions, compile_benchmark

#: fuel for whole-program VM runs (the Table 7 bench uses the same)
VM_FUEL = 60_000_000


class Workload(NamedTuple):
    """One named workload: its rationale, load shape and node cap."""

    name: str
    #: why the workload exists (mirrored in BENCHMARK.json)
    why: str
    #: closed or open loop, and the number of clients
    loop: str
    #: processes doing the program's work at once
    concurrency: int
    #: ``max_nodes`` for every enumeration, None when not enumerating
    cap: Optional[int]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        # The paper's pipeline and ROADMAP's north-star workload: flat
        # kernels and analyses, interning and fingerprinting, then
        # Tables 4-6 over the completed DAGs.  Skips staticanalysis and
        # repro.parallel, so changes there should not move it.
        Workload(
            "study_enum",
            "all 71 study functions enumerated serially on the default flat "
            "engine, then Tables 4-6 over the completed DAGs",
            "closed, 1 client", 1, cap=30,
        ),
        # The checked run: sanitize="full" vets every edge and today
        # forces the object engine, object analyses and staticanalysis,
        # with no flat kernel.  Program context is left out, so
        # translation validation proves or reports edges unverified
        # instead of co-executing whole programs in the VM (that cost
        # belongs to the VM, which table7_compile measures).
        Workload(
            "study_sanitized",
            "the same 71 functions with sanitize=full: object engine, object "
            "analyses and the static checker on every edge",
            "closed, 1 client", 1, cap=8,
        ),
        # The only workload where repro.parallel does the work
        # (coordinator, workers, shard serialization, merge).  Capped
        # functions overshoot the cap because the coordinator checks
        # max_nodes only after a whole shard merges; those DAGs differ
        # from serial and are counted as failed, not hidden.
        Workload(
            "study_jobs2",
            "the same 71 functions through ParallelEnumerator with 2 worker "
            "processes, matching a 2-CPU host",
            "closed, 1 client; all functions submitted at once, each "
            "starting when the shard queue runs dry", 2, cap=15,
        ),
        # Table 7: the only workload for core.batch, core.probabilistic
        # and the VM.  The probabilistic compiler is trained in set-up
        # on the study functions that complete under study_enum's cap.
        Workload(
            "table7_compile",
            "batch and probabilistic compilers on every function of the six "
            "programs, then each program run in the VM",
            "closed, 1 client", 1, cap=None,
        ),
    )
}

#: the cap the probabilistic compiler's training set is drawn at
TRAINING_CAP = WORKLOADS["study_enum"].cap

GOLDENS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "goldens.json")


def load_goldens() -> dict:
    with open(GOLDENS_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def dag_digest(dag) -> str:
    """sha256 of the DAG's checkpoint form: node keys, edges, dormant
    sets and levels, in node-id order."""
    payload = json.dumps(dag_to_dict(dag), sort_keys=True,
                         separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def peak_rss_mb() -> float:
    """Peak resident set of this process or any child it reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def geomean(values: List[float]) -> float:
    return exp(sum(log(v) for v in values) / len(values)) if values else 0.0


def study_rows(results, labels, walls, pools=None) -> List[dict]:
    """Per-function rows for enumeration results."""
    rows = []
    for index, (label, result) in enumerate(zip(labels, results)):
        row = {
            "name": label,
            "wall_s": walls[index],
            "edges": result.attempted_phases,
            "instances": len(result.dag),
            "active_edges": sum(len(n.active) for n in result.dag.nodes.values()),
            "completed": result.completed,
            "digest": dag_digest(result.dag),
            "sanitize_failures": len(result.quarantine) + sum(
                (result.sanitize_stats or {}).get(key, 0)
                for key in ("findings", "contract_violations", "refuted")),
        }
        if pools is not None:
            row.update(pools[index])
        rows.append(row)
    return rows


def pool_row() -> dict:
    stats = flat_pool_stats()
    return {"pool_instructions": stats["instructions"],
            "pool_blocks": stats["blocks"]}


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------


def setup(workload: Workload, seed: int) -> dict:
    """Compile the inputs (and train, for table7); returns the round's
    context, with the set-up timings under ``"timings"``."""
    ctx: dict = {"timings": {}}
    order = random.Random(seed)
    start = time.perf_counter()
    if workload.name == "table7_compile":
        # Each compiler optimizes its own copy in place.
        ctx["batch"] = {name: compile_benchmark(name) for name in PROGRAMS}
        ctx["prob"] = {name: compile_benchmark(name) for name in PROGRAMS}
    else:
        programs = {name: compile_benchmark(name) for name in PROGRAMS}
        ctx["functions"] = [
            (f"{program.name}.{name}", programs[program.name].functions[name])
            for program, name in all_study_functions()
        ]
        order.shuffle(ctx["functions"])
    ctx["timings"]["compile_s"] = time.perf_counter() - start
    if workload.name == "table7_compile":
        start = time.perf_counter()
        ctx["interactions"] = train_interactions()
        ctx["timings"]["train_s"] = time.perf_counter() - start
        ctx["order"] = list(PROGRAMS)
        order.shuffle(ctx["order"])
    return ctx


def train_interactions():
    """Tables 4-6 over the study functions that complete at
    ``TRAINING_CAP``, in the fixed golden order (the seed must not
    change the trained probabilities)."""
    from repro.core.enumeration import enumerate_space
    from repro.core.interactions import analyze_interactions

    goldens = load_goldens()["caps"][str(TRAINING_CAP)]
    programs = {name: compile_benchmark(name) for name in PROGRAMS}
    results = [
        enumerate_space(programs[program.name].functions[name],
                        EnumerationConfig(max_nodes=TRAINING_CAP))
        for program, name in all_study_functions()
        if goldens[f"{program.name}.{name}"]["completed"]
    ]
    return analyze_interactions(results)


# ----------------------------------------------------------------------
# Rounds
# ----------------------------------------------------------------------


def run_round(workload: Workload, ctx: dict, recorder=None) -> dict:
    """One timed pass, probing the host's speed between its units of
    work; *recorder* is the traced run's ``layers.Recorder`` or None."""
    runner = {
        "study_enum": _serial_round,
        "study_sanitized": _serial_round,
        "study_jobs2": _jobs2_round,
        "table7_compile": _table7_round,
    }[workload.name]
    probe = HostProbe()
    out = runner(workload, ctx, recorder, probe)
    out["host_factor"] = probe.factor()
    return out


def _serial_round(workload: Workload, ctx: dict, recorder, probe) -> dict:
    # Looked up at call time, so the traced run times the wrapped entry
    # points (see layers.py).
    from repro.core import enumeration, interactions

    sanitize = "full" if workload.name == "study_sanitized" else None
    labels, results, walls = [], [], []
    pools = [] if recorder is not None else None
    wall = 0.0
    for label, func in ctx["functions"]:
        config = EnumerationConfig(max_nodes=workload.cap, sanitize=sanitize)
        probe.sample()
        start = time.perf_counter()
        result = enumeration.enumerate_space(func, config)
        elapsed = time.perf_counter() - start
        wall += elapsed
        labels.append(label)
        results.append(result)
        walls.append(elapsed)
        if pools is not None:
            pools.append(pool_row())
    if workload.name == "study_enum":
        completed = [r for r in results if r.completed]
        start = time.perf_counter()
        interactions.analyze_interactions(completed)
        wall += time.perf_counter() - start
    sanitize_totals: Dict[str, int] = {}
    for result in results:
        for key, value in (result.sanitize_stats or {}).items():
            sanitize_totals[key] = sanitize_totals.get(key, 0) + value
    return {
        "wall_s": wall,
        "functions": study_rows(results, labels, walls, pools),
        "sanitize": sanitize_totals,
    }


def _jobs2_round(workload: Workload, ctx: dict, recorder, probe) -> dict:
    """One pass through the parallel service.  Functions overlap in the
    pool, so a function's elapsed time mostly measures queueing behind
    the others; its row's wall is its worker time instead, summed from
    the coordinator's own ``shard_done`` telemetry.  Both vCPUs stay
    busy through the pass, so the host is not probed and the round's
    times stay raw (probes taken around the pass tracked its wall worse
    than no correction at all)."""
    from repro.observability.tracer import Tracer
    from repro.parallel import coordinator
    from repro.parallel import EnumerationRequest, ParallelConfig

    tracer = recorder.tracer if recorder is not None else Tracer()
    busy: Dict[str, float] = {}

    def on_event(name: str, **fields) -> None:
        if name == "shard_done":
            label = fields["function"]
            busy[label] = busy.get(label, 0.0) + fields["wall"]

    tracer.subscribe(on_event)
    requests = [EnumerationRequest(label, func)
                for label, func in ctx["functions"]]
    parallel = ParallelConfig(jobs=workload.concurrency, tracer=tracer)
    enumerator = coordinator.ParallelEnumerator(
        EnumerationConfig(max_nodes=workload.cap), parallel)
    start = time.perf_counter()
    results = enumerator.enumerate(requests)
    wall = time.perf_counter() - start
    labels = [r.label for r in requests]
    return {
        "wall_s": wall,
        "functions": study_rows(results, labels,
                                [busy[label] for label in labels]),
        "sanitize": {},
    }


def _table7_round(workload: Workload, ctx: dict, recorder, probe) -> dict:
    from repro.core.batch import BatchCompiler
    from repro.core.probabilistic import ProbabilisticCompiler
    from repro.vm import Interpreter

    rows, checksums = [], {}
    batch_s = prob_s = vm_s = 0.0
    dyn_insts = 0
    for program_name in ctx["order"]:
        batch_program = ctx["batch"][program_name]
        prob_program = ctx["prob"][program_name]
        batch = BatchCompiler()
        prob = ProbabilisticCompiler(ctx["interactions"])
        program_rows = []
        for function_name in batch_program.functions:
            probe.sample()
            start = time.perf_counter()
            b = batch.compile(batch_program.functions[function_name])
            mid = time.perf_counter()
            p = prob.compile(prob_program.functions[function_name])
            end = time.perf_counter()
            batch_s += mid - start
            prob_s += end - mid
            program_rows.append({
                "name": f"{program_name}.{function_name}",
                "function": function_name,
                "wall_s": end - start,
                "edges": b.attempted + p.attempted,
                "batch_attempted": b.attempted,
                "prob_attempted": p.attempted,
                "batch_size": b.code_size,
                "prob_size": p.code_size,
            })
        entry = PROGRAMS[program_name].entry
        probe.sample()
        start = time.perf_counter()
        batch_run = Interpreter(batch_program, fuel=VM_FUEL).run(entry)
        prob_run = Interpreter(prob_program, fuel=VM_FUEL).run(entry)
        vm_s += time.perf_counter() - start
        dyn_insts += batch_run.total_insts + prob_run.total_insts
        checksums[program_name] = {"batch": batch_run.value,
                                   "prob": prob_run.value}
        for row in program_rows:
            name = row.pop("function")
            row["batch_dyn"] = batch_run.per_function.get(name)
            row["prob_dyn"] = prob_run.per_function.get(name)
            row["completed"] = True
        rows.extend(program_rows)
    batch_att = sum(r["batch_attempted"] for r in rows)
    prob_att = sum(r["prob_attempted"] for r in rows)
    return {
        "wall_s": batch_s + prob_s + vm_s,
        "functions": rows,
        "checksums": checksums,
        "table7": {
            "batch_compile_s": batch_s,
            "prob_compile_s": prob_s,
            "vm_run_s": vm_s,
            "batch_attempted": batch_att,
            "prob_attempted": prob_att,
            "dyn_insts": dyn_insts,
            "prob_attempted_ratio": prob_att / batch_att,
            # geometric means of per-function prob/batch ratios
            "prob_code_size_ratio": geomean(
                [r["prob_size"] / r["batch_size"] for r in rows
                 if r["batch_size"] and r["prob_size"]]),
            "prob_dyn_insts_ratio": geomean(
                [r["prob_dyn"] / r["batch_dyn"] for r in rows
                 if r["batch_dyn"] and r["prob_dyn"]]),
        },
    }
