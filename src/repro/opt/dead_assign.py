"""Phase h — dead assignment elimination.

Table 1: "Uses global analysis to remove assignments when the assigned
value is never used."

Three kinds of dead assignments are removed:

- register assignments whose destination is not live afterwards;
- compares whose condition code is never read (the condition code is
  never live across a block boundary in this IR);
- stores to scalar frame slots that are never subsequently loaded
  (resolved through the frame-reference analysis, so stores made via
  address registers are handled).

Loads have no side effects on this target, so a dead load is removed
like any other dead assignment.
"""

from __future__ import annotations

from typing import List

from repro.analysis.cache import liveness_of, slot_liveness_of
from repro.ir.function import Function
from repro.ir.instructions import Assign, Compare, CondBranch, Instruction
from repro.ir.operands import Mem, Reg
from repro.opt.base import Phase


class DeadAssignmentElimination(Phase):
    id = "h"
    name = "dead assignment elimination"
    #: contract: requires nothing, establishes nothing, preserves
    #: every monotone invariant (see staticanalysis/contracts.py)
    contract_requires = ()
    contract_establishes = ()
    contract_breaks = ()

    def run(self, func: Function) -> bool:
        changed = False
        while self._sweep(func):
            changed = True
        return changed

    def _sweep(self, func: Function) -> bool:
        liveness = liveness_of(func)
        slot_liveness = slot_liveness_of(func)
        frame_refs = slot_liveness.frame_refs
        removed = False
        for block in func.blocks:
            live_after = liveness.live_after_each(block.label)
            slots_after = slot_liveness.live_after_each(block.label)
            refs = frame_refs.refs[block.label]
            cc_read_later = self._cc_read_flags(block.insts)
            kept: List[Instruction] = []
            for i, inst in enumerate(block.insts):
                if isinstance(inst, Compare) and not cc_read_later[i]:
                    removed = True
                    continue
                if isinstance(inst, Assign):
                    if isinstance(inst.dst, Reg):
                        if inst.dst not in live_after[i]:
                            removed = True
                            continue
                    else:
                        ref = refs[i]
                        if (
                            not ref.wild_write
                            and len(ref.writes) == 1
                            and not (set(ref.writes) & slots_after[i])
                        ):
                            removed = True
                            continue
                kept.append(inst)
            if len(kept) != len(block.insts):
                block.insts = kept
                func.invalidate_analyses()
        return removed

    @staticmethod
    def _cc_read_flags(insts) -> List[bool]:
        """For each instruction, is the condition code it sets read later?"""
        flags = [False] * len(insts)
        needed = False
        for i in range(len(insts) - 1, -1, -1):
            inst = insts[i]
            if isinstance(inst, CondBranch):
                needed = True
            elif isinstance(inst, Compare):
                flags[i] = needed
                needed = False
        return flags
