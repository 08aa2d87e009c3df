"""Phase o — evaluation order determination.

Table 1: "Reorders instructions within a single basic block in an
attempt to use fewer registers."

This phase is only legal before the compulsory register assignment (it
exists to reduce the number of simultaneously live pseudo registers
that assignment must later color).  Within each block a dependence DAG
is built (register RAW/WAR/WAW, memory ordering, condition-code
ordering) and instructions are re-scheduled greedily, preferring at
each step the ready instruction that ends the most pseudo live ranges
while starting the fewest.
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.analysis.cache import liveness_of
from repro.ir.function import Function
from repro.ir.instructions import Call, Compare, CondBranch, Instruction
from repro.ir.operands import Reg
from repro.opt.base import Phase


def _touches_memory(inst: Instruction) -> Dict[str, bool]:
    return {
        "reads": inst.reads_memory() or isinstance(inst, Call),
        "writes": inst.writes_memory() or isinstance(inst, Call),
    }


def _build_dependencies(insts: List[Instruction]) -> List[Set[int]]:
    """preds[j] = indices that must be scheduled before j."""
    n = len(insts)
    preds: List[Set[int]] = [set() for _ in range(n)]
    for j in range(n):
        later = insts[j]
        later_mem = _touches_memory(later)
        for i in range(j):
            earlier = insts[i]
            earlier_mem = _touches_memory(earlier)
            ordered = bool(
                (earlier.defs() & later.uses())
                or (earlier.uses() & later.defs())
                or (earlier.defs() & later.defs())
            )
            if not ordered:
                if earlier_mem["writes"] and (later_mem["reads"] or later_mem["writes"]):
                    ordered = True
                elif earlier_mem["reads"] and later_mem["writes"]:
                    ordered = True
            if not ordered:
                # Condition-code ordering.
                if earlier.sets_cc() and (later.sets_cc() or later.uses_cc()):
                    ordered = True
                elif earlier.uses_cc() and later.sets_cc():
                    ordered = True
            if not ordered and later.is_transfer:
                ordered = True  # the transfer stays last
            if ordered:
                preds[j].add(i)
    return preds


class EvaluationOrderDetermination(Phase):
    id = "o"
    name = "evaluation order determination"
    #: contract: illegal once registers are assigned (mirrors applicable)
    contract_requires = ('pre-assignment',)
    contract_establishes = ()
    contract_breaks = ()

    def applicable(self, func: Function) -> bool:
        return not func.reg_assigned

    def run(self, func: Function) -> bool:
        liveness = liveness_of(func)
        changed = False
        for block in func.blocks:
            if len(block.insts) < 3:
                continue
            new_order = self._schedule(block.insts, liveness.live_out[block.label])
            if new_order != list(range(len(block.insts))):
                block.insts = [block.insts[i] for i in new_order]
                func.invalidate_analyses()
                changed = True
        return changed

    @staticmethod
    def _schedule(insts: List[Instruction], live_out) -> List[int]:
        n = len(insts)
        preds = _build_dependencies(insts)
        succs: List[Set[int]] = [set() for _ in range(n)]
        for j, deps in enumerate(preds):
            for i in deps:
                succs[i].add(j)
        remaining_preds = [len(deps) for deps in preds]

        # For each pseudo register: the set of unscheduled instructions
        # using it (to detect when scheduling one ends a live range).
        users: Dict[Reg, Set[int]] = {}
        for i, inst in enumerate(insts):
            for reg in inst.uses():
                if reg.pseudo:
                    users.setdefault(reg, set()).add(i)

        ready = sorted(i for i in range(n) if remaining_preds[i] == 0)
        order: List[int] = []
        scheduled: Set[int] = set()
        while ready:
            best = None
            best_score = None
            for i in ready:
                inst = insts[i]
                frees = 0
                for reg in inst.uses():
                    if not reg.pseudo or reg in live_out:
                        continue
                    if users.get(reg, set()) <= {i} | scheduled:
                        frees += 1
                starts = 0
                for reg in inst.defs():
                    if reg.pseudo and (users.get(reg, set()) - scheduled - {i}):
                        starts += 1
                score = (frees - starts, -i)
                if best_score is None or score > best_score:
                    best, best_score = i, score
            ready.remove(best)
            scheduled.add(best)
            order.append(best)
            for j in sorted(succs[best]):
                remaining_preds[j] -= 1
                if remaining_preds[j] == 0:
                    ready.append(j)
            ready.sort()
        return order
