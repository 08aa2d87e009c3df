#!/usr/bin/env python3
"""Section 7 future work: pricing a whole space with few executions.

The paper's eventual goal is finding the instance with near-optimal
*execution* performance, but simulating hundreds of thousands of
instances is infeasible.  Its proposed lever is the CF column of
Table 3: instances sharing a control flow execute corresponding blocks
equally often, so dynamic instruction counts for the whole space follow
from one profiled execution per distinct control flow.

This example enumerates a function's space, prices every instance with
the oracle, and reports how few executions that took — then contrasts
the best-code-size leaf with the best-dynamic-count leaf.

Run:  python examples/dynamic_inference.py
"""

from repro.core.dag import materialize_instances
from repro.core.dynamic import DynamicCountOracle
from repro.core.enumeration import EnumerationConfig, enumerate_space
from repro.frontend import compile_source
from repro.opt import implicit_cleanup

SOURCE = """
int a[30];
int weighted_sum(int scale) {
    int total = 0;
    int i;
    for (i = 0; i < 30; i++) {
        if (a[i] > 0)
            total += a[i] * scale;
    }
    return total;
}
"""


def drive(interpreter):
    for i in range(30):
        interpreter.store_global("a", (i % 7) - 3, i)
    interpreter.run("weighted_sum", (5,))


def main():
    program = compile_source(SOURCE)
    func = program.function("weighted_sum")
    implicit_cleanup(func)
    print("enumerating weighted_sum's space (capped) ...")
    result = enumerate_space(
        func,
        EnumerationConfig(max_nodes=4000, time_limit=120),
    )
    dag = result.dag
    materialize_instances(dag, func)
    print(f"{len(dag)} instances, {dag.distinct_control_flows()} distinct control flows")

    oracle = DynamicCountOracle(program, "weighted_sum", drive)
    prices = oracle.price_space(dag)
    print(
        f"priced {len(prices)} instances with only {oracle.executions} "
        "executions (one per control flow)"
    )

    leaves = [node for node in dag.leaves() if node.function is not None]
    if leaves:
        by_size = min(leaves, key=lambda n: n.num_insts)
        by_speed = min(leaves, key=lambda n: prices[n.node_id])
        print(
            f"\nsmallest leaf   : {by_size.num_insts} insts, "
            f"{prices[by_size.node_id]} dynamic insts"
        )
        print(
            f"fastest leaf    : {by_speed.num_insts} insts, "
            f"{prices[by_speed.node_id]} dynamic insts"
        )
        if by_size.node_id != by_speed.node_id:
            print("(code size and speed optima are different instances — "
                  "the phase ordering trade-off is real)")
    else:
        best = min(prices.items(), key=lambda kv: kv[1])
        print(f"\nfastest enumerated instance: {best[1]} dynamic insts")


if __name__ == "__main__":
    main()
