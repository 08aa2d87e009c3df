"""Phase j — minimize loop jumps.

Table 1: "Removes a jump associated with a loop by duplicating a
portion of the loop."

This is loop inversion: a back edge that is an unconditional jump to a
loop header whose only job is to test the exit condition is replaced by
a duplicated copy of the header's test that branches back into the loop
body directly.  The loop then pays one conditional branch per
iteration instead of a jump plus a branch.
"""

from __future__ import annotations

from typing import List, Optional

from repro.analysis.cache import cfg_of, loops_of
from repro.ir.function import BasicBlock, Function
from repro.ir.instructions import CondBranch, INVERTED_RELOP, Jump
from repro.opt.base import Phase

#: headers with more instructions than this are not duplicated
MAX_DUPLICATED_INSTS = 12


class MinimizeLoopJumps(Phase):
    id = "j"
    name = "minimize loop jumps"
    #: contract: requires nothing, establishes nothing, preserves
    #: every monotone invariant (see staticanalysis/contracts.py)
    contract_requires = ()
    contract_establishes = ()
    contract_breaks = ()

    def run(self, func: Function) -> bool:
        changed = False
        while self._apply_once(func):
            changed = True
        return changed

    def _apply_once(self, func: Function) -> bool:
        loops = loops_of(func)
        for loop in loops:
            header = func.block(loop.header)
            term = header.terminator()
            if not isinstance(term, CondBranch):
                continue
            if len(header.body()) > MAX_DUPLICATED_INSTS:
                continue
            header_index = func.block_index(header.label)
            if header_index + 1 >= len(func.blocks):
                continue
            fallthrough = func.blocks[header_index + 1].label
            if fallthrough == term.target:
                continue
            # Classify the header's two edges.
            if term.target in loop.body and fallthrough not in loop.body:
                stay_relop, stay_target, exit_label = (
                    term.relop,
                    term.target,
                    fallthrough,
                )
            elif term.target not in loop.body and fallthrough in loop.body:
                stay_relop, stay_target, exit_label = (
                    INVERTED_RELOP[term.relop],
                    fallthrough,
                    term.target,
                )
            else:
                continue
            for latch_label in sorted(loop.latches):
                if latch_label == header.label:
                    continue
                latch = func.block(latch_label)
                latch_term = latch.terminator()
                if not isinstance(latch_term, Jump):
                    continue
                if latch_term.target != header.label:
                    continue
                self._invert(func, latch, header, stay_relop, stay_target, exit_label)
                return True
        return False

    @staticmethod
    def _invert(
        func: Function,
        latch: BasicBlock,
        header: BasicBlock,
        stay_relop: str,
        stay_target: str,
        exit_label: str,
    ) -> None:
        # Replace the latch's jump with a duplicated copy of the header
        # test that branches back into the loop body directly.
        latch.insts.pop()
        latch.insts.extend(header.body())
        latch.insts.append(CondBranch(stay_relop, stay_target))
        # The latch's fallthrough must now reach the loop exit.
        latch_index = func.block_index(latch.label)
        needs_thunk = (
            latch_index + 1 >= len(func.blocks)
            or func.blocks[latch_index + 1].label != exit_label
        )
        if needs_thunk:
            thunk = BasicBlock(func.new_label(), [Jump(exit_label)])
            func.blocks.insert(latch_index + 1, thunk)
        func.invalidate_analyses()
