"""Parallel enumeration service — speedup and warm-store benchmarks.

Enumerates a sweep of study functions serially and through the
per-function multi-process service at 1/2/4 workers, then repeats the 4-worker run
against a persistent space store to measure the warm cache-hit path.
Honest wall-clock numbers (including the host CPU count) land in
``benchmarks/results/parallel.json``.

The >=2x 4-worker speedup assertion only fires on hosts with at least
four CPUs; single-core CI containers record the numbers without
enforcing a speedup that the hardware cannot provide.
"""

from __future__ import annotations

import json
import os
import time

from repro.core.enumeration import enumerate_space
from repro.opt import implicit_cleanup
from repro.parallel import (
    EnumerationRequest,
    ParallelConfig,
    ParallelEnumerator,
    SpaceStore,
)
from repro.programs import compile_benchmark

from .conftest import RESULTS_DIR, bench_config

#: functions that enumerate completely within the default caps; large
#: enough that each function's work dominates the process plumbing
SWEEP = [
    ("sha", "rol"),
    ("jpeg", "descale"),
    ("jpeg", "rgb_to_y"),
    ("fft", "fcos"),
]


def _sweep_functions():
    functions = {}
    for bench_name, function_name in SWEEP:
        program = compile_benchmark(bench_name)
        func = program.functions[function_name]
        implicit_cleanup(func)
        functions[(bench_name, function_name)] = func
    return functions


def test_parallel_speedup(tmp_path):
    functions = _sweep_functions()
    config = bench_config()
    requests = [
        EnumerationRequest(f"{bench}.{name}", functions[(bench, name)])
        for bench, name in SWEEP
    ]

    start = time.perf_counter()
    serial = [enumerate_space(func, config) for func in functions.values()]
    serial_wall = time.perf_counter() - start
    assert all(result.completed for result in serial)

    walls = {}
    for jobs in (1, 2, 4):
        start = time.perf_counter()
        results = ParallelEnumerator(
            config, ParallelConfig(jobs=jobs)
        ).enumerate(requests)
        walls[jobs] = time.perf_counter() - start
        assert all(result.completed for result in results)

    store = SpaceStore(str(tmp_path / "spaces"))
    start = time.perf_counter()
    ParallelEnumerator(config, ParallelConfig(jobs=4, store=store)).enumerate(
        requests
    )
    cold_wall = time.perf_counter() - start
    start = time.perf_counter()
    warm = ParallelEnumerator(
        config, ParallelConfig(jobs=4, store=store)
    ).enumerate(requests)
    warm_wall = time.perf_counter() - start
    assert all(result.resumed_from for result in warm)
    assert store.hits == len(SWEEP)

    cpu_count = os.cpu_count() or 1
    payload = {
        "sweep": [f"{bench}.{name}" for bench, name in SWEEP],
        "cpu_count": cpu_count,
        "serial_wall_seconds": round(serial_wall, 3),
        "parallel_wall_seconds": {
            str(jobs): round(wall, 3) for jobs, wall in walls.items()
        },
        "speedup_4_workers": round(serial_wall / walls[4], 2),
        "store_cold_wall_seconds": round(cold_wall, 3),
        "store_warm_wall_seconds": round(warm_wall, 3),
        "warm_store_speedup": round(cold_wall / warm_wall, 2),
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "parallel.json"
    path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\n{json.dumps(payload, indent=2)}\n[written to {path}]")

    # warm runs skip enumeration entirely: always faster than cold
    assert warm_wall < cold_wall
    if cpu_count >= 4:
        assert payload["speedup_4_workers"] >= 2.0
