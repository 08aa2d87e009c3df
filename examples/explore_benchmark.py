#!/usr/bin/env python3
"""Explore the phase order space of MiBench-like functions (Table 3).

Enumerates the space of selected benchmark functions, prints their
Table 3 rows, and then *executes* the best and worst leaf instances of
one function to show the dynamic impact of phase ordering.

Run:  python examples/explore_benchmark.py
"""

from repro.core.dag import materialize_instances
from repro.core.enumeration import EnumerationConfig, enumerate_space
from repro.core.stats import FunctionSpaceStats, format_stats_table, static_function_facts
from repro.opt import implicit_cleanup
from repro.programs import PROGRAMS, compile_benchmark
from repro.vm import Interpreter

STUDY = [
    ("bitcount", "bit_count"),
    ("bitcount", "bit_shifter"),
    ("dijkstra", "next_rand"),
    ("jpeg", "descale"),
    ("jpeg", "range_limit"),
    ("sha", "rol"),
    ("stringsearch", "plant_pattern"),
    ("stringsearch", "bmh_init"),
]


def main():
    rows = []
    keepers = {}
    for bench_name, func_name in STUDY:
        program = compile_benchmark(bench_name)
        func = program.functions[func_name]
        implicit_cleanup(func)
        insts, blocks, branches, loops = static_function_facts(func)
        result = enumerate_space(
            func,
            EnumerationConfig(max_nodes=6000, time_limit=90),
        )
        rows.append(
            FunctionSpaceStats(
                f"{func_name}({bench_name[0]})",
                insts,
                blocks,
                branches,
                loops,
                result,
            )
        )
        keepers[(bench_name, func_name)] = result, func

    print(format_stats_table(rows))

    # Execute best vs worst leaf of bit_count inside the full program.
    result, root = keepers[("bitcount", "bit_count")]
    dag = result.dag
    materialize_instances(dag, root)
    leaves = dag.leaves()
    if leaves:
        best = min(leaves, key=lambda n: n.num_insts)
        worst = max(leaves, key=lambda n: n.num_insts)
        print(
            f"\nbit_count: best leaf {best.num_insts} insts, "
            f"worst leaf {worst.num_insts} insts"
        )
        for label, leaf in (("best", best), ("worst", worst)):
            program = compile_benchmark("bitcount")
            program.functions["bit_count"] = leaf.function
            run = Interpreter(program, fuel=50_000_000).run("main")
            print(
                f"  whole-benchmark run with {label} bit_count: "
                f"value={run.value}, dynamic insts={run.total_insts}"
            )


if __name__ == "__main__":
    main()
