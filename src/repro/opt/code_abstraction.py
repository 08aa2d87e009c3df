"""Phase n — code abstraction.

Table 1: "Performs cross-jumping and code-hoisting to move identical
instructions from basic blocks to their common predecessor or
successor."

Cross-jumping: when every predecessor of a block reaches it
unconditionally (by jump or fallthrough) and all predecessors end with
the same instruction suffix, the suffix is moved into the successor.

Code hoisting: when both successors of a conditional branch have the
branching block as their only predecessor and begin with the same
instruction, that instruction is moved up into the branching block
(after its compare — a moved compare would clobber the condition code,
so compares are never hoisted).
"""

from __future__ import annotations

from typing import List, Optional

from repro.analysis.cache import cfg_of
from repro.ir.function import BasicBlock, Function
from repro.ir.instructions import Compare, CondBranch, Instruction, Jump
from repro.opt.base import Phase


class CodeAbstraction(Phase):
    id = "n"
    name = "code abstraction"
    #: contract: requires nothing, establishes nothing, preserves
    #: every monotone invariant (see staticanalysis/contracts.py)
    contract_requires = ()
    contract_establishes = ()
    contract_breaks = ()

    def run(self, func: Function) -> bool:
        changed = False
        while self._cross_jump_once(func) or self._hoist_once(func):
            changed = True
        return changed

    # ------------------------------------------------------------------
    # Cross-jumping
    # ------------------------------------------------------------------

    def _cross_jump_once(self, func: Function) -> bool:
        cfg = cfg_of(func)
        for join in func.blocks:
            preds = cfg.preds.get(join.label, [])
            if len(preds) < 2 or join.label == func.entry.label:
                continue
            if join.label in preds:
                continue
            pred_blocks = [func.block(label) for label in preds]
            if any(not self._unconditionally_reaches(p, join.label, cfg) for p in pred_blocks):
                continue
            suffix_len = self._common_suffix_length(pred_blocks)
            if suffix_len == 0:
                continue
            model = pred_blocks[0]
            suffix = model.body()[-suffix_len:]
            for pred in pred_blocks:
                term = pred.terminator()
                keep = pred.body()[:-suffix_len]
                pred.insts = keep + ([term] if term is not None else [])
            join.insts[0:0] = suffix
            func.invalidate_analyses()
            return True
        return False

    @staticmethod
    def _unconditionally_reaches(pred: BasicBlock, label: str, cfg) -> bool:
        """True when *pred*'s only successor is *label* via jump/fallthrough."""
        term = pred.terminator()
        if isinstance(term, CondBranch):
            return False
        return cfg.succs.get(pred.label) == [label]

    @staticmethod
    def _common_suffix_length(preds: List[BasicBlock]) -> int:
        bodies = [p.body() for p in preds]
        limit = min(len(body) for body in bodies)
        length = 0
        while length < limit:
            candidate = bodies[0][-(length + 1)]
            if candidate.is_transfer:
                break
            if all(body[-(length + 1)] == candidate for body in bodies[1:]):
                length += 1
            else:
                break
        return length

    # ------------------------------------------------------------------
    # Code hoisting
    # ------------------------------------------------------------------

    def _hoist_once(self, func: Function) -> bool:
        cfg = cfg_of(func)
        for i, block in enumerate(func.blocks):
            term = block.terminator()
            if not isinstance(term, CondBranch):
                continue
            succs = cfg.succs.get(block.label, [])
            if len(succs) != 2:
                continue
            taken, fallthrough = func.block(succs[0]), func.block(succs[1])
            if cfg.preds.get(taken.label) != [block.label]:
                continue
            if cfg.preds.get(fallthrough.label) != [block.label]:
                continue
            hoisted = False
            while taken.insts and fallthrough.insts:
                first = taken.insts[0]
                if first != fallthrough.insts[0]:
                    break
                if first.is_transfer or isinstance(first, Compare):
                    break
                # Insert just before the conditional branch: the branch
                # reads the already-computed condition code, so the
                # instruction's effects are the same on both paths.
                block.insts.insert(len(block.insts) - 1, first)
                taken.insts.pop(0)
                fallthrough.insts.pop(0)
                hoisted = True
            if hoisted:
                func.invalidate_analyses()
                return True
        return False
