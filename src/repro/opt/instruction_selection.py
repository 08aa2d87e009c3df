"""Phase s — instruction selection.

Table 1: "Combines pairs or triples of instructions together where the
instructions are linked by set/use dependencies.  After combining the
effects of the instructions, it also performs constant folding and
checks if the resulting effect is a legal instruction before committing
to the transformation."

A definition ``t = e`` is forward-substituted into the single
instruction that uses ``t`` (in the same block, with nothing in between
disturbing ``e``'s operands or, for loads, memory), the result is
constant-folded, and the combination is committed only when the target
accepts the combined RTL as one legal instruction.  Triples fall out of
repeating the pass to a fixpoint.  Standalone constant folding of a
single RTL (e.g. left behind by constant propagation) is also part of
this phase.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.analysis.defuse import defined_reg, rewrite_uses
from repro.ir.function import Function
from repro.ir.instructions import (
    Assign,
    Call,
    Compare,
    Instruction,
    Return,
)
from repro.ir.operands import Expr, Mem, Reg, fold
from repro.machine.target import DEFAULT_TARGET, RV
from repro.opt.base import Phase


def count_register_uses(func: Function) -> Dict[Reg, int]:
    """Textual use counts of every register, including implicit uses."""
    counts: Dict[Reg, int] = {}

    def scan(expr: Expr) -> None:
        for node in expr.walk():
            if isinstance(node, Reg):
                counts[node] = counts.get(node, 0) + 1

    for inst in func.instructions():
        if isinstance(inst, Assign):
            scan(inst.src)
            if isinstance(inst.dst, Mem):
                scan(inst.dst.addr)
        elif isinstance(inst, Compare):
            scan(inst.left)
            scan(inst.right)
        elif isinstance(inst, Call):
            for reg in inst.uses():
                counts[reg] = counts.get(reg, 0) + 1
        elif isinstance(inst, Return) and func.returns_value:
            counts[RV] = counts.get(RV, 0) + 1
    return counts


def _count_in_instruction(inst: Instruction, reg: Reg) -> int:
    count = 0

    def scan(expr: Expr) -> None:
        nonlocal count
        for node in expr.walk():
            if node == reg:
                count += 1

    if isinstance(inst, Assign):
        scan(inst.src)
        if isinstance(inst.dst, Mem):
            scan(inst.dst.addr)
    elif isinstance(inst, Compare):
        scan(inst.left)
        scan(inst.right)
    return count


def _fold_instruction(inst: Instruction) -> Instruction:
    if isinstance(inst, Assign):
        src = fold(inst.src)
        dst = inst.dst
        if isinstance(dst, Mem):
            addr = fold(dst.addr)
            if addr is not dst.addr:
                dst = Mem(addr)
        if src is inst.src and dst is inst.dst:
            return inst
        return Assign(dst, src)
    if isinstance(inst, Compare):
        left = fold(inst.left)
        right = fold(inst.right)
        if left is inst.left and right is inst.right:
            return inst
        return Compare(left, right)
    return inst


class InstructionSelection(Phase):
    id = "s"
    name = "instruction selection"
    #: contract: an active application flips the sel_applied legality flag
    contract_requires = ()
    contract_establishes = ('selection-done',)
    contract_breaks = ()

    def run(self, func: Function) -> bool:
        changed = False
        while self._pass(func):
            changed = True
        return changed

    def _pass(self, func: Function) -> bool:
        # Standalone folding first (cheap, enables combinations), and
        # removal of no-op self-moves left behind by collapsed copies.
        folded_any = False
        for block in func.blocks:
            kept = [
                inst
                for inst in block.insts
                if not (
                    isinstance(inst, Assign)
                    and isinstance(inst.dst, Reg)
                    and inst.src == inst.dst
                )
            ]
            if len(kept) != len(block.insts):
                block.insts = kept
                folded_any = True
            for i, inst in enumerate(block.insts):
                folded = _fold_instruction(inst)
                if folded is not inst and folded != inst and DEFAULT_TARGET.is_legal(folded):
                    block.insts[i] = folded
                    folded_any = True
        if folded_any:
            func.invalidate_analyses()

        use_counts = count_register_uses(func)
        for block in func.blocks:
            if self._combine_in_block(block, func, use_counts):
                return True
        return folded_any

    def _combine_in_block(self, block, func, use_counts) -> bool:
        insts = block.insts
        for i, inst in enumerate(insts):
            t = defined_reg(inst)
            if t is None:
                continue
            expr = inst.src
            if t in expr.registers():
                continue
            total_uses = use_counts.get(t, 0)
            if total_uses == 0:
                continue
            j = self._find_combinable_use(insts, i, t, expr, total_uses)
            if j is None:
                continue
            combined = rewrite_uses(insts[j], {t: expr})
            if combined == insts[j]:
                continue
            combined = _fold_instruction(combined)
            if not DEFAULT_TARGET.is_legal(combined):
                continue
            insts[j] = combined
            del insts[i]
            func.invalidate_analyses()
            return True
        return False

    @staticmethod
    def _find_combinable_use(insts, i, t: Reg, expr: Expr, total_uses: int) -> Optional[int]:
        """Index of the single use of *t* that the def at *i* may merge into."""
        expr_regs = set(expr.registers())
        reads_mem = expr.reads_memory()
        for j in range(i + 1, len(insts)):
            candidate = insts[j]
            if t in candidate.uses():
                if isinstance(candidate, (Call, Return)):
                    return None  # implicit uses cannot absorb the def
                if _count_in_instruction(candidate, t) != total_uses:
                    return None  # used again elsewhere
                return j
            # Crossing this instruction: it must not disturb the
            # substituted expression's inputs.
            defs = candidate.defs()
            if t in defs:
                return None
            if defs & expr_regs:
                return None
            if reads_mem and (candidate.writes_memory() or isinstance(candidate, Call)):
                return None
        return None
