"""Table 3 — function-level search space statistics.

Regenerates the paper's Table 3 for all 71 MiBench-like study
functions, each enumerated under the same node cap: unoptimized
instructions, blocks, branches, loops; distinct function instances,
attempted phases, largest active sequence length, distinct control
flows, leaf instances; and the max/min/%diff leaf code sizes.  The
summary reports how many of the 71 complete at the cap, next to the
paper's 109/111.

Expected shape versus the paper: the attempted space (15^Len) is
astronomically larger than the distinct-instance count; leaf counts are
small relative to instance counts (the DAG converges); code size gaps
between best and worst orderings average tens of percent; functions
whose space exceeds the cap appear as N/A.
"""

import json
import statistics
from pathlib import Path

from repro.core.checkpoint import dag_digest
from repro.core.stats import format_stats_table

from .conftest import bench_config, study_cap, write_result

PERFBENCH_GOLDENS = Path(__file__).resolve().parents[1] / "perfbench" / "goldens.json"


def test_table3(benchmark, enumerated_suite):
    rows = sorted(
        enumerated_suite.values(), key=lambda stat: -stat.insts
    )
    cap = study_cap()
    lines = [
        "Table 3 — function-level search space statistics",
        f"(all {len(rows)} study functions, each capped at {cap:,} instances;",
        " N/A = search exceeded the cap, as in the paper)",
        "",
        format_stats_table(rows),
    ]
    complete = [row for row in rows if row.completed]
    lines += [
        "",
        f"{len(complete)}/{len(rows)} complete at cap {cap:,} (paper: 109/111)",
    ]
    if complete:
        diffs = [
            row.codesize_diff_percent
            for row in complete
            if row.codesize_diff_percent is not None
        ]
        lines += [
            f"average distinct instances : "
            f"{statistics.mean(row.fn_instances for row in complete):.1f}",
            f"average attempted phases   : "
            f"{statistics.mean(row.attempted_phases for row in complete):.1f}",
            f"largest active sequence    : "
            f"{max(row.max_seq_len for row in complete)}",
            f"average codesize %diff     : {statistics.mean(diffs):.1f}%"
            if diffs
            else "average codesize %diff     : N/A",
        ]
    write_result("table3.txt", "\n".join(lines))

    # Time one representative enumeration (the paper's "minutes for
    # most functions" claim, scaled to the simulator).
    from repro.opt import implicit_cleanup
    from repro.programs import compile_benchmark
    from repro.core.enumeration import enumerate_space

    def enumerate_one():
        func = compile_benchmark("sha").functions["rol"]
        implicit_cleanup(func)
        return enumerate_space(func, bench_config())

    result = benchmark.pedantic(enumerate_one, rounds=1, iterations=1)
    assert result.completed


def test_study_digests_match_perfbench_goldens(benchmark, enumerated_suite):
    """Every space perfbench's goldens record as complete at cap 30 is
    the full space, so the fixture must reproduce its digest: the
    Table 3-7 DAGs are the ones perfbench checks."""
    with open(PERFBENCH_GOLDENS, encoding="utf-8") as handle:
        goldens = json.load(handle)["caps"]["30"]
    expected = {
        label: row["digest"] for label, row in goldens.items() if row["completed"]
    }
    stats = {
        f"{bench}.{name}": stat for (bench, name), stat in enumerated_suite.items()
    }
    assert len(stats) == len(goldens) == 71

    def digests():
        return {label: dag_digest(stats[label].result.dag) for label in expected}

    assert benchmark.pedantic(digests, rounds=1, iterations=1) == expected
