"""Phase q — strength reduction.

Table 1: "Replaces an expensive instruction with one or more cheaper
ones.  For this version of the compiler, this means changing a multiply
by a constant into a series of shift, adds, and subtracts."

A multiply ``t = a * c`` is rewritten when ``c`` has at most three set
bits (so the replacement sequence of shifts and shifted adds is cheaper
than the target's multiply cost); a negative constant additionally
pays one negate.  The ARM barrel shifter makes ``t = t + (a << k)`` a
single legal instruction.
"""

from __future__ import annotations

from typing import List, Optional

from repro.ir.function import Function
from repro.ir.instructions import Assign, Instruction
from repro.ir.operands import BinOp, Const, Reg, UnOp
from repro.machine.target import DEFAULT_TARGET
from repro.opt.base import Phase


def _set_bits(value: int) -> List[int]:
    bits = []
    position = 0
    while value:
        if value & 1:
            bits.append(position)
        value >>= 1
        position += 1
    bits.reverse()  # most significant first
    return bits


def expand_multiply(dst: Reg, src: Reg, constant: int) -> Optional[List[Instruction]]:
    """Shift/add sequence computing ``dst = src * constant``, or None.

    Requires ``dst != src`` (the destination doubles as accumulator).
    """
    if dst == src:
        return None
    if constant == 0:
        return [Assign(dst, Const(0))]
    negative = constant < 0
    magnitude = -constant if negative else constant
    bits = _set_bits(magnitude)
    cost = len(bits) + (1 if negative else 0)
    if cost >= DEFAULT_TARGET.MUL_COST:
        return None
    first, rest = bits[0], bits[1:]
    insts: List[Instruction] = []
    if first == 0:
        insts.append(Assign(dst, src))
    else:
        insts.append(Assign(dst, BinOp("lsl", src, Const(first))))
    for bit in rest:
        if bit == 0:
            insts.append(Assign(dst, BinOp("add", dst, src)))
        else:
            insts.append(
                Assign(dst, BinOp("add", dst, BinOp("lsl", src, Const(bit))))
            )
    if negative:
        insts.append(Assign(dst, UnOp("neg", dst)))
    return insts


class StrengthReduction(Phase):
    id = "q"
    name = "strength reduction"
    #: contract: requires nothing, establishes nothing, preserves
    #: every monotone invariant (see staticanalysis/contracts.py)
    contract_requires = ()
    contract_establishes = ()
    contract_breaks = ()

    def run(self, func: Function) -> bool:
        changed = False
        for block in func.blocks:
            new_insts: List[Instruction] = []
            for inst in block.insts:
                expansion = self._try_expand(inst)
                if expansion is None:
                    new_insts.append(inst)
                else:
                    new_insts.extend(expansion)
                    changed = True
            block.insts = new_insts
        if changed:
            func.invalidate_analyses()
        return changed

    @staticmethod
    def _try_expand(inst: Instruction) -> Optional[List[Instruction]]:
        if not isinstance(inst, Assign) or not isinstance(inst.dst, Reg):
            return None
        src = inst.src
        if (
            isinstance(src, BinOp)
            and src.op == "mul"
            and isinstance(src.left, Reg)
            and isinstance(src.right, Const)
            and isinstance(src.right.value, int)
        ):
            return expand_multiply(inst.dst, src.left, src.right.value)
        return None
