"""Dynamic instruction count inference from distinct control flows.

The paper's section 7 observes that the small number of distinct
control flows (the CF column of Table 3) "can be used to infer the
dynamic instruction count of one execution from another": two function
instances with the same control flow execute corresponding blocks the
same number of times, so profiling *one* representative per control
flow prices *every* instance in the space.  For a function with
thousands of instances but only dozens of control flows, this turns
"simulate everything" into a handful of executions.

:class:`DynamicCountOracle` implements exactly that: it lazily executes
one representative instance per distinct control flow (recording
per-block execution frequencies) and computes every other instance's
dynamic count as sum(frequency[i] * len(block_i)) over positionally
corresponding blocks.

Requires a space whose instances were rebuilt with
:func:`repro.core.dag.materialize_instances`, so that each node
carries its function instance; a bare node raises
:class:`MissingFunctionError` up front instead of failing deep inside
a leaf walk.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.core.dag import SpaceDAG, SpaceNode
from repro.core.fingerprint import fingerprint_function
from repro.ir.function import Function, Program
from repro.vm import Interpreter


class MissingFunctionError(ValueError):
    """A space node carries no :class:`Function` instance.

    Raised before any leaf walk starts, with the fix spelled out:
    rebuild the instances from the DAG with
    :func:`repro.core.dag.materialize_instances`.
    Subclasses :class:`ValueError` for backward compatibility with the
    untyped error this replaces.
    """


def _missing(dag_name: str, detail: str) -> MissingFunctionError:
    return MissingFunctionError(
        f"{dag_name}: {detail}; rebuild the instances with "
        "repro.core.dag.materialize_instances(dag, root_func)"
    )


class DynamicCountOracle:
    """Price every instance in a space with one run per control flow.

    Parameters
    ----------
    program:
        The program the function belongs to (callees are needed).
    function_name:
        Which function the space enumerates.
    run:
        Callback ``run(interpreter) -> None`` that drives one
        execution (e.g. seeds globals and calls the entry point).
        The interpreter it receives has block profiling enabled.
    """

    def __init__(
        self,
        program: Program,
        function_name: str,
        run: Callable[[Interpreter], None],
        fuel: int = 50_000_000,
    ):
        self.program = program
        self.function_name = function_name
        self.run = run
        self.fuel = fuel
        #: cf_crc -> per-positional-block execution frequencies
        self._frequencies: Dict[int, List[int]] = {}
        self.executions = 0

    # ------------------------------------------------------------------

    def measure(self, func: Function) -> List[int]:
        """Execute once with *func* installed; per-block frequencies."""
        trial = Program()
        trial.globals = self.program.globals
        trial.functions = dict(self.program.functions)
        trial.functions[self.function_name] = func
        interpreter = Interpreter(trial, fuel=self.fuel, profile_blocks=True)
        self.run(interpreter)
        self.executions += 1
        return [
            interpreter.block_counts.get((self.function_name, block.label), 0)
            for block in func.blocks
        ]

    def block_frequencies(self, func: Function, cf_crc: Optional[int] = None) -> List[int]:
        """Per-positional-block execution frequencies of *func*.

        Executes at most once per distinct control flow: a previously
        measured representative with the same ``cf_crc`` prices this
        instance for free.  This is the one primitive every objective —
        dynamic count, weighted cycles, the energy proxy (see
        :mod:`repro.search.cost`) — is derived from, which is what
        makes multi-objective pricing cost *zero extra executions*.
        """
        if cf_crc is None:
            cf_crc = fingerprint_function(func).cf_crc
        frequencies = self._frequencies.get(cf_crc)
        if frequencies is None:
            frequencies = self.measure(func)
            self._frequencies[cf_crc] = frequencies
        return frequencies

    def count_for(self, func: Function, cf_crc: Optional[int] = None) -> int:
        """Dynamic instruction count of an arbitrary function instance."""
        frequencies = self.block_frequencies(func, cf_crc)
        return sum(
            count * len(block.insts)
            for count, block in zip(frequencies, func.blocks)
        )

    def dynamic_count(self, node: SpaceNode) -> int:
        """Dynamic instructions of *node*'s instance (inferred when a
        same-control-flow representative was already executed)."""
        func = node.function
        if func is None:
            raise _missing(
                self.function_name,
                f"node #{node.node_id} carries no function instance",
            )
        return self.count_for(func, node.cf_crc)

    def price_space(self, dag: SpaceDAG) -> Dict[int, int]:
        """Dynamic counts for every node; executes once per control flow.

        Raises :class:`MissingFunctionError` up front when *no* node
        carries an instance (the space was never materialized);
        partially materialized spaces price the nodes they have.
        """
        priced = {
            node.node_id: self.count_for(node.function, node.cf_crc)
            for node in dag.nodes.values()
            if node.function is not None
        }
        if not priced and dag.nodes:
            raise _missing(
                self.function_name, "no node carries a function instance"
            )
        return priced

    def best_node(self, dag: SpaceDAG) -> Tuple[SpaceNode, int]:
        """The leaf instance with the lowest dynamic instruction count."""
        all_leaves = dag.leaves()
        leaves = [node for node in all_leaves if node.function is not None]
        if not leaves:
            if all_leaves:
                raise _missing(
                    self.function_name,
                    f"none of the {len(all_leaves)} leaves carries a "
                    "function instance",
                )
            raise ValueError("space has no leaves to price")
        priced = [(self.dynamic_count(node), node) for node in leaves]
        count, node = min(priced, key=lambda pair: (pair[0], pair[1].node_id))
        return node, count
