"""Shared fixtures for the experiment-reproduction benchmarks.

Every table and figure of the paper's evaluation has a bench module:

=====================  =============================================
bench module           paper artifact
=====================  =============================================
bench_table3.py        Table 3 — per-function search space statistics
bench_table4.py        Table 4 — enabling probabilities
bench_table5.py        Table 5 — disabling probabilities
bench_table6.py        Table 6 — independence probabilities
bench_table7.py        Table 7 — batch vs probabilistic compilation
bench_figures_1_2_4.py Figures 1/2/4 — naive tree vs pruned tree vs DAG
bench_figure6.py       Figure 6 — search enhancement speedup
bench_figure7.py       Figure 7 — weighted DAG statistics
=====================  =============================================

Each bench writes its rendered table to ``benchmarks/results/`` and
also times the underlying computation with pytest-benchmark.

The study set is the paper's workload: all 71 functions of
``repro.programs.all_study_functions()``, each enumerated under one
node cap (``max_nodes``) and no time limit.  Which functions complete,
and so every rendered table apart from its timing columns, depends
only on the code and the cap, never on the host's speed.  Table 3
reports how many of the 71 complete at the cap, next to the paper's
109/111; Tables 4-7 and Figures 1/2/4 and 7 are derived from the same
DAGs.  Functions whose space exceeds the cap are reported N/A, as the
paper marks its two over-budget functions.

Environment knobs:

- ``REPRO_BENCH_MAX_NODES`` — the per-function node cap (default
  ``STUDY_CAP``; CI's smoke run uses 500);
- ``REPRO_BENCH_JOBS``      — enumerate the study set through the
  per-function process pool (``repro.parallel``) at this worker
  count; its spaces are bit-identical to serial, so every table is
  unchanged;
- ``REPRO_BENCH_STORE``     — persistent merged-space store
  directory; completed spaces are reused across runs.

Every bench run also records per-test wall-clock timings in
``benchmarks/results/timings.json``.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

from repro.core.enumeration import EnumerationConfig, enumerate_space
from repro.core.interactions import analyze_interactions
from repro.core.stats import FunctionSpaceStats, static_function_facts
from repro.opt import implicit_cleanup
from repro.programs import PROGRAMS, all_study_functions, compile_benchmark

RESULTS_DIR = Path(__file__).parent / "results"

#: the default per-function node cap of every bench run: the largest of
#: the caps measured (300, 1,000, 2,000; see EXPERIMENTS.md) that keeps
#: a full serial bench run within ~20 minutes on 2 CPUs
STUDY_CAP = 2000


def study_cap() -> int:
    return int(os.environ.get("REPRO_BENCH_MAX_NODES", str(STUDY_CAP)))


def bench_config(**overrides) -> EnumerationConfig:
    return EnumerationConfig(max_nodes=study_cap(), **overrides)


def parallel_knobs():
    """(jobs, store_dir) from the environment; (1, None) = serial."""
    jobs = int(os.environ.get("REPRO_BENCH_JOBS", "1"))
    store_dir = os.environ.get("REPRO_BENCH_STORE") or None
    return jobs, store_dir


def write_result(name: str, text: str) -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / name
    path.write_text(text + "\n")
    print(f"\n{text}\n[written to {path}]")
    return path


@pytest.fixture(scope="session")
def enumerated_suite():
    """(bench, function) -> FunctionSpaceStats for the 71 study functions.

    With ``REPRO_BENCH_JOBS>1`` or ``REPRO_BENCH_STORE`` set, the study
    set is enumerated through the parallel service; its spaces are
    bit-identical to serial, so every downstream table is unchanged.
    """
    programs = {name: compile_benchmark(name) for name in PROGRAMS}
    functions, all_facts = {}, {}
    for program, function_name in all_study_functions():
        key = (program.name, function_name)
        func = programs[program.name].functions[function_name]
        implicit_cleanup(func)
        functions[key] = func
        all_facts[key] = static_function_facts(func)

    jobs, store_dir = parallel_knobs()
    if jobs > 1 or store_dir:
        from repro.parallel import (
            EnumerationRequest,
            ParallelConfig,
            ParallelEnumerator,
            SpaceStore,
        )

        requests = [
            EnumerationRequest(f"{bench}.{name}", func)
            for (bench, name), func in functions.items()
        ]
        parallel = ParallelConfig(
            jobs=jobs, store=SpaceStore(store_dir) if store_dir else None
        )
        results = dict(
            zip(functions, ParallelEnumerator(bench_config(), parallel).enumerate(requests))
        )
    else:
        results = {
            key: enumerate_space(func, bench_config())
            for key, func in functions.items()
        }

    return {
        (bench_name, function_name): FunctionSpaceStats(
            f"{function_name}({bench_name[0]})",
            *all_facts[(bench_name, function_name)],
            results[(bench_name, function_name)],
        )
        for bench_name, function_name in functions
    }


_TIMINGS: dict = {}


@pytest.fixture(autouse=True)
def _record_wall_clock(request):
    """Record each bench's wall-clock into results/timings.json."""
    start = time.perf_counter()
    yield
    _TIMINGS[request.node.name] = round(time.perf_counter() - start, 3)


def pytest_sessionfinish(session, exitstatus):
    if not _TIMINGS:
        return
    jobs, store_dir = parallel_knobs()
    RESULTS_DIR.mkdir(exist_ok=True)
    payload = {
        "jobs": jobs,
        "store": store_dir,
        "cpu_count": os.cpu_count(),
        "wall_clock_seconds": dict(sorted(_TIMINGS.items())),
        "total_seconds": round(sum(_TIMINGS.values()), 3),
    }
    (RESULTS_DIR / "timings.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )


@pytest.fixture(scope="session")
def interactions(enumerated_suite):
    """Tables 4-6 aggregated over the enumerated study set."""
    return analyze_interactions(
        stat.result for stat in enumerated_suite.values()
    )
