"""Ablations of the design choices DESIGN.md calls out.

1. **Register/label remapping** (section 4.2.1): merging instances
   without remapping only catches textually identical code.  Figure 5
   argues the remapping is what makes pruning aggressive; this ablation
   measures how much larger the enumerated space gets without it.

2. **Interaction-guided GA mutation** (section 7): mutating with the
   measured enabling probabilities versus uniformly random phases, both
   checked against the exhaustively enumerated optimum.

Expected shape: the no-remap space is strictly larger (more nodes for
the same budget, or more nodes at completion); the guided GA reaches
the optimum at least as often as the uniform GA on the same budget.
"""

from repro.core.enumeration import EnumerationConfig, enumerate_space
from repro.opt import implicit_cleanup
from repro.programs import compile_benchmark
from repro.search import GeneticSearcher

from .conftest import write_result

# Functions with loops/branches, where different phase orders consume
# registers and create labels in different orders (the Figure 5
# situation the remapping exists for).
REMAP_STUDY = [
    ("dijkstra", "next_rand"),
    ("jpeg", "range_limit"),
    ("jpeg", "rgb_to_cb"),
    ("stringsearch", "set_pattern"),
    ("bitcount", "main"),
]

GA_STUDY = [
    ("sha", "rol"),
    ("jpeg", "descale"),
    ("jpeg", "rgb_to_y"),
    ("bitcount", "tbl_bitcount"),
]


def fresh(bench, name):
    func = compile_benchmark(bench).functions[name]
    implicit_cleanup(func)
    return func


def test_remapping_ablation(benchmark):
    header = (
        f"{'function':22s} {'with remap':>11s} {'without':>9s} "
        f"{'growth':>7s} {'complete (with/without)':>24s}"
    )
    lines = [
        "Ablation — identical-instance detection without register/label",
        "remapping (section 4.2.1, Figure 5)",
        "",
        header,
        "-" * len(header),
    ]
    for bench_name, function_name in REMAP_STUDY:
        with_remap = enumerate_space(
            fresh(bench_name, function_name),
            EnumerationConfig(max_nodes=8000, remap=True),
        )
        without = enumerate_space(
            fresh(bench_name, function_name),
            EnumerationConfig(max_nodes=8000, remap=False),
        )
        growth = len(without.dag) / len(with_remap.dag)
        lines.append(
            f"{bench_name + '.' + function_name:22s} "
            f"{len(with_remap.dag):>11,} {len(without.dag):>9,} "
            f"{growth:>6.2f}x "
            f"{str(with_remap.completed) + '/' + str(without.completed):>24s}"
        )
        # the remapped space can never be larger
        assert len(with_remap.dag) <= len(without.dag)
    write_result("ablation_remapping.txt", "\n".join(lines))

    benchmark.pedantic(
        lambda: enumerate_space(
            fresh("sha", "rol"), EnumerationConfig(max_nodes=2000, remap=False)
        ),
        rounds=1,
        iterations=1,
    )


def test_guided_ga_ablation(benchmark, interactions, enumerated_suite):
    header = (
        f"{'function':22s} {'optimum':>8s} {'uniform GA':>11s} "
        f"{'guided GA':>10s}"
    )
    lines = [
        "Ablation — GA mutation guided by enabling probabilities",
        "(section 7) vs uniform mutation, same budget, vs true optimum",
        "",
        header,
        "-" * len(header),
    ]
    wins = 0
    for bench_name, function_name in GA_STUDY:
        stat = enumerated_suite.get((bench_name, function_name))
        optimum = (
            stat.codesize_min if stat is not None and stat.completed else None
        )
        uniform = GeneticSearcher(
            fresh(bench_name, function_name),
            generations=10,
            population_size=12,
            seed=20060325,
        ).run()
        guided = GeneticSearcher(
            fresh(bench_name, function_name),
            generations=10,
            population_size=12,
            seed=20060325,
            interactions=interactions,
        ).run()
        if guided.best_fitness <= uniform.best_fitness:
            wins += 1
        lines.append(
            f"{bench_name + '.' + function_name:22s} "
            f"{str(optimum) if optimum is not None else 'N/A':>8s} "
            f"{uniform.best_fitness:>11.0f} {guided.best_fitness:>10.0f}"
        )
        if optimum is not None:
            assert guided.best_fitness >= optimum  # cannot beat exhaustive
    lines += [
        "-" * len(header),
        f"guided matches or beats uniform on {wins}/{len(GA_STUDY)} functions",
    ]
    write_result("ablation_guided_ga.txt", "\n".join(lines))

    benchmark.pedantic(
        lambda: GeneticSearcher(
            fresh("jpeg", "descale"), generations=5, seed=1
        ).run(),
        rounds=1,
        iterations=1,
    )
