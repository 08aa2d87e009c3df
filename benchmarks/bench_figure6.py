"""Figure 6 — enhancements for faster searches.

The paper's section 4.3 enhancements: keep the unoptimized function in
memory and share sequence prefixes by storing each frontier instance,
so evaluating a sequence applies one phase instead of replaying the
whole prefix.  The paper reports a 5-10x reduction in search time.

This bench enumerates the same function with the enhancements on and
off and reports the number of phase applications and wall-clock times.
Both columns run on the default flat engine (replay re-applies the
creating edges from the root with the same flat kernels), so they
differ only in the enhancement, and both must enumerate the same DAG.

Expected shape versus the paper: the phases-applied ratio grows with
the depth of the space (each replayed sequence costs its whole length)
and lands well above 2x for non-trivial functions; wall-clock follows.
"""

from repro.core.checkpoint import dag_digest
from repro.core.enumeration import EnumerationConfig, enumerate_space
from repro.opt import implicit_cleanup
from repro.programs import compile_benchmark

from .conftest import write_result

STUDY = [
    ("dijkstra", "next_rand"),
    ("sha", "rol"),
    ("jpeg", "descale"),
    ("bitcount", "tbl_bitcount"),
]


def enumerate_with(bench_name, function_name, share_prefixes):
    func = compile_benchmark(bench_name).functions[function_name]
    implicit_cleanup(func)
    return enumerate_space(
        func,
        EnumerationConfig(share_prefixes=share_prefixes, max_nodes=3000),
    )


def test_figure6(benchmark):
    header = (
        f"{'function':22s} {'naive applies':>14s} {'enhanced':>10s} "
        f"{'ratio':>7s} {'naive s':>8s} {'enh s':>7s}"
    )
    lines = [
        "Figure 6 — phase applications with and without the section 4.3",
        "enhancements (in-memory instances + prefix sharing)",
        "",
        header,
        "-" * len(header),
    ]
    ratios = []
    for bench_name, function_name in STUDY:
        fast = enumerate_with(bench_name, function_name, True)
        slow = enumerate_with(bench_name, function_name, False)
        assert dag_digest(fast.dag) == dag_digest(slow.dag)  # identical space
        ratio = slow.phases_applied / fast.phases_applied
        ratios.append(ratio)
        lines.append(
            f"{bench_name + '.' + function_name:22s} "
            f"{slow.phases_applied:>14,} {fast.phases_applied:>10,} "
            f"{ratio:>7.1f} {slow.elapsed:>8.2f} {fast.elapsed:>7.2f}"
        )
    lines += [
        "-" * len(header),
        f"average phases-applied ratio: {sum(ratios)/len(ratios):.1f}x "
        "(paper: search time reduced at least 5-10x)",
    ]
    write_result("figure6.txt", "\n".join(lines))
    assert sum(ratios) / len(ratios) > 2.0

    benchmark.pedantic(
        lambda: enumerate_with("sha", "rol", True), rounds=1, iterations=1
    )
