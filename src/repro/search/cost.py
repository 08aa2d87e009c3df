"""Multi-objective cost model over the exhaustive space.

The paper scores instances by two numbers: static code size and
dynamic instruction count.  Real phase-ordering decisions trade more
dimensions than that — VPO's own successors weight cycles, and the
learned-ordering literature (PAPERS.md) optimizes energy on embedded
targets.  This module extends leaf evaluation to a *vector* of
objectives computed from the same per-block execution frequencies the
:class:`~repro.core.dynamic.DynamicCountOracle` already measures, so
pricing a whole space on four objectives still costs exactly one VM
execution per distinct control flow:

- ``code_size`` — static instruction count (the paper's primary);
- ``dynamic_count`` — executed instructions (the paper's section 7);
- ``cycles`` — a weighted-latency proxy: multiplies, divides, memory
  traffic and taken-branch overhead cost extra issue slots;
- ``energy`` — an access-energy proxy: memory traffic dominates, with
  arithmetic intensity a second-order term (the classic embedded
  cost split that makes energy *not* proportional to cycles);
- ``registers`` — distinct hardware registers referenced, a register
  pressure proxy: on a real embedded target every register past the
  caller-saved set costs prologue/epilogue saves and interrupt-state,
  none of which this IR models directly.  Distinct fully-optimized
  leaves genuinely trade this against code size (a shorter instance
  that needs one more register vs. a one-instruction-longer instance
  that frees one), which is what makes the leaf frontier more than a
  single point.

The weights are deliberately small integers: every objective stays an
exact integer, so Pareto comparisons, the JSON leaderboard, and the
determinism tests never meet floating-point noise.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from repro.core.dag import SpaceDAG, SpaceNode
from repro.core.dynamic import DynamicCountOracle, MissingFunctionError
from repro.ir.function import Function
from repro.ir.instructions import Assign, Call, Compare, CondBranch, Instruction
from repro.ir.operands import BinOp, Reg

#: extra issue slots on top of the single base cycle
CYCLE_WEIGHTS = {
    "mul": 3,
    "div": 11,
    "rem": 11,
    "load": 2,
    "store": 1,
    "branch": 1,
    "call": 2,
}

#: extra energy units on top of the single base unit
ENERGY_WEIGHTS = {
    "mul": 2,
    "div": 6,
    "rem": 6,
    "load": 4,
    "store": 4,
    "branch": 0,
    "call": 3,
}

#: objectives a :class:`CostVector` exposes, in canonical order
OBJECTIVES = ("code_size", "dynamic_count", "cycles", "energy", "registers")

#: the default Pareto axes (cycles is dropped — it correlates almost
#: perfectly with dynamic_count; energy does not, because its weights
#: are skewed toward memory traffic, and registers is independent of
#: all three)
PARETO_OBJECTIVES = ("code_size", "dynamic_count", "energy", "registers")


class CostVector(NamedTuple):
    """One instance's price on every objective (all exact integers)."""

    code_size: int
    dynamic_count: int
    cycles: int
    energy: int
    registers: int

    def to_dict(self) -> Dict[str, int]:
        return {name: int(getattr(self, name)) for name in OBJECTIVES}


def register_pressure(func: Function) -> int:
    """Distinct hardware registers referenced by *func*.

    Pseudo registers are ignored: before register assignment they are
    unbounded in number and cost nothing; what the target pays for is
    hardware registers live across the function.
    """
    registers = set()
    for block in func.blocks:
        for inst in block.insts:
            for expr in _expressions(inst):
                for node in expr.walk():
                    if isinstance(node, Reg) and not node.pseudo:
                        registers.add(node.index)
    return len(registers)


def _expressions(inst: Instruction) -> Iterator:
    if isinstance(inst, Assign):
        yield inst.dst
        yield inst.src
    elif isinstance(inst, Compare):
        yield inst.left
        yield inst.right


def _classify(inst: Instruction) -> Dict[str, int]:
    """Count the weighted features of one instruction."""
    features = {"mul": 0, "div": 0, "rem": 0, "load": 0, "store": 0,
                "branch": 0, "call": 0}
    if isinstance(inst, Call):
        features["call"] = 1
        features["load"] = 1
        features["store"] = 1
        return features
    if isinstance(inst, CondBranch):
        features["branch"] = 1
        return features
    for expr in _expressions(inst):
        for node in expr.walk():
            if isinstance(node, BinOp) and node.op in ("mul", "div", "rem"):
                features[node.op] += 1
    if inst.reads_memory():
        features["load"] += 1
    if inst.writes_memory():
        features["store"] += 1
    return features


def instruction_cycles(inst: Instruction) -> int:
    """Latency proxy of one instruction (base cycle + extras)."""
    features = _classify(inst)
    return 1 + sum(CYCLE_WEIGHTS[name] * count for name, count in features.items())


def instruction_energy(inst: Instruction) -> int:
    """Energy proxy of one instruction (base unit + extras)."""
    features = _classify(inst)
    return 1 + sum(ENERGY_WEIGHTS[name] * count for name, count in features.items())


class CostModel:
    """Price function instances as :class:`CostVector`\\ s.

    Wraps a :class:`~repro.core.dynamic.DynamicCountOracle`: all four
    objectives derive from the same per-block frequencies, so pricing
    a space multi-objectively executes the VM no more often than
    pricing dynamic counts alone (once per distinct control flow).
    """

    def __init__(self, oracle: DynamicCountOracle):
        self.oracle = oracle

    @property
    def executions(self) -> int:
        return self.oracle.executions

    # ------------------------------------------------------------------

    def vector_for(self, func: Function, cf_crc: Optional[int] = None) -> CostVector:
        """Price an arbitrary function instance."""
        frequencies = self.oracle.block_frequencies(func, cf_crc)
        dynamic = cycles = energy = 0
        for count, block in zip(frequencies, func.blocks):
            if not count:
                continue
            dynamic += count * len(block.insts)
            cycles += count * sum(instruction_cycles(inst) for inst in block.insts)
            energy += count * sum(instruction_energy(inst) for inst in block.insts)
        return CostVector(
            func.num_instructions(),
            dynamic,
            cycles,
            energy,
            register_pressure(func),
        )

    def node_vector(self, node: SpaceNode) -> CostVector:
        if node.function is None:
            raise MissingFunctionError(
                f"{self.oracle.function_name}: node #{node.node_id} carries "
                "no function instance; rebuild the instances with "
                "repro.core.dag.materialize_instances(dag, root_func)"
            )
        return self.vector_for(node.function, node.cf_crc)

    def price_leaves(self, dag: SpaceDAG) -> Dict[int, CostVector]:
        """Cost vectors for every leaf instance of the space."""
        leaves = dag.leaves()
        priced = {
            node.node_id: self.node_vector(node)
            for node in leaves
            if node.function is not None
        }
        if not priced and leaves:
            raise MissingFunctionError(
                f"{self.oracle.function_name}: none of the {len(leaves)} "
                "leaves carries a function instance; rebuild the instances "
                "with repro.core.dag.materialize_instances(dag, root_func)"
            )
        return priced

    def price_space(self, dag: SpaceDAG) -> Dict[int, CostVector]:
        """Cost vectors for every node of the space."""
        priced = {
            node.node_id: self.node_vector(node)
            for node in dag.nodes.values()
            if node.function is not None
        }
        if not priced and dag.nodes:
            raise MissingFunctionError(
                f"{self.oracle.function_name}: no node carries a function "
                "instance; rebuild the instances with "
                "repro.core.dag.materialize_instances(dag, root_func)"
            )
        return priced

    # ------------------------------------------------------------------

    @staticmethod
    def optimum(
        prices: Dict[int, CostVector], objective: str = "dynamic_count"
    ) -> Tuple[int, int]:
        """``(node_id, value)`` minimizing one objective (ties break on
        the lowest node id, so the optimum is deterministic)."""
        if objective not in OBJECTIVES:
            raise ValueError(
                f"bad objective {objective!r}; expected one of {OBJECTIVES}"
            )
        if not prices:
            raise ValueError("no priced nodes to take an optimum over")
        node_id = min(
            prices, key=lambda nid: (getattr(prices[nid], objective), nid)
        )
        return node_id, int(getattr(prices[node_id], objective))


def _dominates(a: Sequence[int], b: Sequence[int]) -> bool:
    """Minimization dominance: *a* is no worse anywhere, better somewhere."""
    return all(x <= y for x, y in zip(a, b)) and any(x < y for x, y in zip(a, b))


def pareto_frontier(
    prices: Dict[int, CostVector],
    objectives: Iterable[str] = PARETO_OBJECTIVES,
    keys: Optional[Dict[int, object]] = None,
) -> List[Tuple[int, Tuple[int, ...]]]:
    """The non-dominated set of *prices* on the chosen objectives.

    Returns ``[(node_id, values), ...]`` sorted by objective values
    (then node id).  Instances with identical objective values collapse
    to one representative, so the frontier's length counts genuinely
    distinct trade-off points.

    Without *keys* the representative is the lowest node id.  Node ids
    are assignment-order artifacts, though — parallel merge order or
    semantic collapse renumber the same space — so callers that need a
    frontier stable across equivalent runs pass ``keys`` mapping node
    ids to their content-derived node keys; ties then break on the
    key's repr (then node id), which survives renumbering.
    """
    objectives = tuple(objectives)
    for name in objectives:
        if name not in OBJECTIVES:
            raise ValueError(
                f"bad objective {name!r}; expected one of {OBJECTIVES}"
            )
    if keys is None:
        ordered = sorted(prices)
    else:
        ordered = sorted(
            prices, key=lambda nid: (repr(keys.get(nid)), nid)
        )
    # one representative per distinct point: first in the stable order
    points: Dict[Tuple[int, ...], int] = {}
    for node_id in ordered:
        values = tuple(int(getattr(prices[node_id], name)) for name in objectives)
        points.setdefault(values, node_id)
    frontier = [
        (node_id, values)
        for values, node_id in points.items()
        if not any(
            _dominates(other, values) for other in points if other != values
        )
    ]
    frontier.sort(key=lambda item: (item[1], item[0]))
    return frontier
