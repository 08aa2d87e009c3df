"""Phase c — common subexpression elimination.

Table 1: "Performs global analysis to eliminate fully redundant
calculations, which also includes global constant and copy
propagation."

Like VPO's, this phase requires register assignment to have been
performed (section 5.2 of the paper notes c and k always disable o for
this reason).

Three cooperating parts, iterated to a fixpoint:

1. *Local value numbering* per block: constant and copy propagation
   through a running value table, plus replacement of recomputed
   expressions (including slot loads) with a copy from the register
   already holding the value.  Replacements are committed only when the
   rewritten RTL stays a legal machine instruction (commutative
   operands are swapped when that legalizes a constant).
2. *Global constant/copy propagation* over single-definition registers,
   guarded by dominance.
3. *Global CSE* over single-definition registers: a computation
   ``rB = e`` dominated by an identical ``rA = e`` (pure register
   expression, operands single-definition) becomes ``rB = rA``.

Note constant *folding* is not done here — that belongs to instruction
selection (s), exactly as in VPO; the division of labour is what makes
c and s overlap on cases like Figure 3 of the paper.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.analysis.cache import cfg_of, dominators_of
from repro.analysis.defuse import defined_reg, rewrite_uses, single_def_registers
from repro.ir.function import Function
from repro.ir.instructions import Assign, Call, Compare, Instruction
from repro.ir.operands import (
    BinOp,
    COMMUTATIVE_OPS,
    Const,
    Expr,
    Mem,
    Reg,
    Sym,
    UnOp,
)
from repro.machine.target import DEFAULT_TARGET, FP
from repro.opt.base import Phase


def _legalize(inst: Instruction) -> Optional[Instruction]:
    """Return a legal variant of *inst*, swapping commutative operands
    if that helps, or None when no legal form exists."""
    if DEFAULT_TARGET.is_legal(inst):
        return inst
    if (
        isinstance(inst, Assign)
        and isinstance(inst.src, BinOp)
        and inst.src.op in COMMUTATIVE_OPS
    ):
        swapped = Assign(inst.dst, BinOp(inst.src.op, inst.src.right, inst.src.left))
        if DEFAULT_TARGET.is_legal(swapped):
            return swapped
    return None


def _literal_slot_offset(mem: Mem) -> Optional[int]:
    """fp-relative offset when the address is literally fp(+const)."""
    addr = mem.addr
    if addr == FP:
        return 0
    if (
        isinstance(addr, BinOp)
        and addr.op == "add"
        and addr.left == FP
        and isinstance(addr.right, Const)
        and isinstance(addr.right.value, int)
    ):
        return addr.right.value
    return None


class _ValueTable:
    """Running value state for local value numbering."""

    def __init__(self):
        self.const_of: Dict[Reg, Const] = {}
        self.copy_of: Dict[Reg, Reg] = {}
        self.holder_of: Dict[Expr, Reg] = {}

    def substitution(self, inst: Instruction) -> Dict[Expr, Expr]:
        mapping: Dict[Expr, Expr] = {}
        for reg in inst.uses():
            constant = self.const_of.get(reg)
            if constant is not None:
                mapping[reg] = constant
                continue
            origin = self.copy_of.get(reg)
            if origin is not None:
                mapping[reg] = origin
        return mapping

    def invalidate(self, reg: Reg) -> None:
        self.const_of.pop(reg, None)
        self.copy_of.pop(reg, None)
        for key in [k for k, origin in self.copy_of.items() if origin == reg]:
            del self.copy_of[key]
        for expr in [
            e
            for e, holder in self.holder_of.items()
            if holder == reg or reg in e.registers()
        ]:
            del self.holder_of[expr]

    def invalidate_memory(self, store: Optional[Mem]) -> None:
        """A store (or call) happened; drop affected load values."""
        store_slot = _literal_slot_offset(store) if store is not None else None
        doomed = []
        for expr in self.holder_of:
            mems = [node for node in expr.walk() if isinstance(node, Mem)]
            if not mems:
                continue
            if store_slot is not None and all(
                _literal_slot_offset(mem) not in (None, store_slot) for mem in mems
            ):
                continue  # distinct known slots cannot alias
            doomed.append(expr)
        for expr in doomed:
            del self.holder_of[expr]

    def record(self, inst: Instruction) -> None:
        dst = defined_reg(inst)
        if dst is None:
            for reg in inst.defs():  # calls clobber caller-saved regs
                self.invalidate(reg)
            return
        self.invalidate(dst)
        src = inst.src
        if isinstance(src, Const):
            self.const_of[dst] = src
        elif isinstance(src, Reg):
            if src != dst:
                self.copy_of[dst] = self.copy_of.get(src, src)
        elif dst not in src.registers():
            # A self-referencing RTL (r1 = r1 + 4) computes a value the
            # expression text no longer denotes; never table it.
            self.holder_of.setdefault(src, dst)


class CommonSubexpressionElimination(Phase):
    id = "c"
    name = "common subexpression elimination"
    #: contract: triggers compulsory register assignment when needed
    contract_requires = ()
    contract_establishes = ('registers-assigned', 'no-pseudo-registers')
    contract_breaks = ()
    requires_assignment = True

    def run(self, func: Function) -> bool:
        changed = False
        while True:
            step = self._local_value_numbering(func)
            step |= self._global_propagation(func)
            step |= self._global_cse(func)
            if not step:
                return changed
            changed = True

    # ------------------------------------------------------------------
    # Part 1: local value numbering
    # ------------------------------------------------------------------

    def _local_value_numbering(self, func: Function) -> bool:
        changed = False
        for block in func.blocks:
            table = _ValueTable()
            for i, inst in enumerate(block.insts):
                mapping = table.substitution(inst)
                if mapping:
                    rewritten = rewrite_uses(inst, mapping)
                    if rewritten != inst:
                        legal = _legalize(rewritten)
                        if legal is None:
                            # Try copies only (constants may be the
                            # illegal part).
                            copy_only = {
                                k: v
                                for k, v in mapping.items()
                                if isinstance(v, Reg)
                            }
                            if copy_only:
                                rewritten = rewrite_uses(inst, copy_only)
                                legal = _legalize(rewritten)
                        if legal is not None and legal != inst:
                            block.insts[i] = legal
                            inst = legal
                            changed = True
                # Redundant computation -> copy from the holder.
                dst = defined_reg(inst)
                if (
                    dst is not None
                    and isinstance(inst.src, (BinOp, UnOp, Mem, Sym))
                ):
                    holder = table.holder_of.get(inst.src)
                    if holder is not None and holder != dst:
                        replacement = Assign(dst, holder)
                        block.insts[i] = replacement
                        inst = replacement
                        changed = True
                # Effects on the table.
                if isinstance(inst, Call):
                    table.invalidate_memory(None)
                elif isinstance(inst, Assign) and isinstance(inst.dst, Mem):
                    table.invalidate_memory(inst.dst)
                table.record(inst)
        if changed:
            func.invalidate_analyses()
        return changed

    # ------------------------------------------------------------------
    # Part 2: global constant / copy propagation (single-def registers)
    # ------------------------------------------------------------------

    def _global_propagation(self, func: Function) -> bool:
        single_defs = single_def_registers(func)
        values: Dict[Reg, Expr] = {}
        for reg, inst in single_defs.items():
            if isinstance(inst.src, Const):
                values[reg] = inst.src
            elif isinstance(inst.src, Reg):
                origin = inst.src
                if origin in single_defs or origin == FP:
                    values[reg] = origin
        if not values:
            return False
        return self._replace_dominated_uses(func, single_defs, values)

    # ------------------------------------------------------------------
    # Part 3: global CSE over single-def registers
    # ------------------------------------------------------------------

    def _global_cse(self, func: Function) -> bool:
        single_defs = single_def_registers(func)

        def stable(expr: Expr) -> bool:
            if expr.reads_memory():
                return False
            return all(
                reg in single_defs or reg == FP for reg in expr.registers()
            )

        cfg = cfg_of(func)
        dom = dominators_of(func)
        reachable = set(dom.idom)
        position: Dict[Reg, Tuple[str, int]] = {}
        for block in func.blocks:
            for i, inst in enumerate(block.insts):
                dst = defined_reg(inst)
                if dst is not None and dst in single_defs:
                    position[dst] = (block.label, i)

        first_holder: Dict[Expr, Reg] = {}
        changed = False
        # Visit in a dominance-compatible order: reverse postorder.
        order = [label for label in cfg.reverse_postorder(func.entry.label)]
        block_map = func.block_map()
        for label in order:
            block = block_map[label]
            for i, inst in enumerate(block.insts):
                dst = defined_reg(inst)
                if dst is None or dst not in single_defs:
                    continue
                src = inst.src
                if not isinstance(src, (BinOp, UnOp, Sym)) or not stable(src):
                    continue
                if dst in src.registers():
                    continue  # self-referencing RTL: text != value
                holder = first_holder.get(src)
                if holder is None:
                    first_holder[src] = dst
                    continue
                holder_label, holder_index = position[holder]
                dominated = (
                    holder_label == label and holder_index < i
                ) or (
                    holder_label != label
                    and holder_label in reachable
                    and label in reachable
                    and dom.strictly_dominates(holder_label, label)
                )
                if dominated and holder != dst:
                    block.insts[i] = Assign(dst, holder)
                    changed = True
        if changed:
            func.invalidate_analyses()
        return changed

    # ------------------------------------------------------------------

    def _replace_dominated_uses(
        self,
        func: Function,
        single_defs: Dict[Reg, Instruction],
        values: Dict[Reg, Expr],
    ) -> bool:
        cfg = cfg_of(func)
        dom = dominators_of(func)
        reachable = set(dom.idom)
        position: Dict[Reg, Tuple[str, int]] = {}
        for block in func.blocks:
            for i, inst in enumerate(block.insts):
                dst = defined_reg(inst)
                if dst is not None and dst in values:
                    position[dst] = (block.label, i)

        changed = False
        for block in func.blocks:
            if block.label not in reachable:
                continue
            for i, inst in enumerate(block.insts):
                mapping: Dict[Expr, Expr] = {}
                for reg in inst.uses():
                    value = values.get(reg)
                    if value is None or reg not in position:
                        continue
                    def_label, def_index = position[reg]
                    if def_label == block.label:
                        if def_index >= i:
                            continue
                    elif not dom.strictly_dominates(def_label, block.label):
                        continue
                    mapping[reg] = value
                if not mapping:
                    continue
                rewritten = rewrite_uses(inst, mapping)
                if rewritten == inst:
                    continue
                legal = _legalize(rewritten)
                if legal is None:
                    copy_only = {
                        k: v for k, v in mapping.items() if isinstance(v, Reg)
                    }
                    if not copy_only:
                        continue
                    rewritten = rewrite_uses(inst, copy_only)
                    legal = _legalize(rewritten)
                if legal is not None and legal != inst:
                    block.insts[i] = legal
                    changed = True
        if changed:
            func.invalidate_analyses()
        return changed
