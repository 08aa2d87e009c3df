"""Compulsory register assignment: pseudo registers -> hardware registers.

VPO performs this implicitly before the first code-improving phase in a
sequence that requires it (c and k).  It is not one of the fifteen
candidate phases; evaluation order determination (o) is illegal after
it has run.

The implementation is a Chaitin-style graph coloring over pseudo
register live ranges, with precolored hardware registers (argument
registers, the return value, call-clobbered registers) as interference
constraints and spill-to-stack as the fallback.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.cache import liveness_of
from repro.analysis.defuse import rewrite_registers
from repro.ir.function import Function
from repro.ir.instructions import Assign, Instruction
from repro.ir.operands import BinOp, Const, Mem, Reg
from repro.machine.target import ALLOCATABLE, FP

_MAX_SPILL_ROUNDS = 25

#: phase contract (one of the two implicit phases; candidate phases
#: declare these as Phase class attributes instead — see
#: repro/staticanalysis/contracts.py for the vocabulary and checker)
CONTRACT = {
    "requires": ("pre-assignment",),
    "establishes": ("registers-assigned", "no-pseudo-registers"),
    "breaks": (),
}


def assign_registers(func: Function) -> None:
    """Replace every pseudo register in *func* with a hardware register."""
    for _ in range(_MAX_SPILL_ROUNDS):
        coloring, spilled = _try_color(func)
        if not spilled:
            _rewrite(func, coloring)
            func.reg_assigned = True
            return
        for pseudo in spilled:
            _spill(func, pseudo)
    raise RuntimeError(f"{func.name}: register assignment did not converge")


def _try_color(func: Function) -> Tuple[Dict[Reg, Reg], List[Reg]]:
    """One coloring attempt: returns (coloring, pseudos to spill)."""
    interference: Dict[Reg, Set[Reg]] = {}
    forbidden: Dict[Reg, Set[int]] = {}

    def note(a: Reg, b: Reg) -> None:
        if a == b:
            return
        if a.pseudo and b.pseudo:
            interference.setdefault(a, set()).add(b)
            interference.setdefault(b, set()).add(a)
        elif a.pseudo:
            forbidden.setdefault(a, set()).add(b.index)
        elif b.pseudo:
            forbidden.setdefault(b, set()).add(a.index)

    pseudos: Set[Reg] = set()
    for inst in func.instructions():
        for reg in inst.defs():
            if reg.pseudo:
                pseudos.add(reg)
        for reg in inst.uses():
            if reg.pseudo:
                pseudos.add(reg)
    for pseudo in pseudos:
        interference.setdefault(pseudo, set())
        forbidden.setdefault(pseudo, set())

    liveness = liveness_of(func)
    for block in func.blocks:
        live_after = liveness.live_after_each(block.label)
        for inst, live in zip(block.insts, live_after):
            for defined in inst.defs():
                for other in live:
                    note(defined, other)

    # Chaitin-Briggs simplify/select with optimistic spilling.
    colors = list(ALLOCATABLE)
    k = len(colors)
    degree = {p: len(interference[p]) + len(forbidden[p]) for p in pseudos}
    stack: List[Reg] = []
    remaining = set(pseudos)
    removed: Set[Reg] = set()
    while remaining:
        candidates = sorted(
            (p for p in remaining if degree[p] < k), key=lambda r: r.index
        )
        if candidates:
            chosen = candidates[0]
        else:
            # Optimistic: push the highest-degree node and hope.
            chosen = max(remaining, key=lambda r: (degree[r], r.index))
        stack.append(chosen)
        remaining.discard(chosen)
        removed.add(chosen)
        for neighbor in interference[chosen]:
            if neighbor not in removed:
                degree[neighbor] -= 1

    # Prefer lightly used colors so unrelated values get distinct
    # registers — keeping live ranges separable for the later phases,
    # as VPO's plentiful-register assignment does.  Hardware registers
    # already present in the code (arguments, return value) count as
    # used so temporaries avoid them.
    usage: Dict[int, int] = {c: 0 for c in colors}
    for inst in func.instructions():
        for reg in list(inst.defs()) + list(inst.uses()):
            if not reg.pseudo and reg.index in usage:
                usage[reg.index] += 1

    coloring: Dict[Reg, Reg] = {}
    spilled: List[Reg] = []
    while stack:
        pseudo = stack.pop()
        taken = set(forbidden[pseudo])
        for neighbor in interference[pseudo]:
            assigned = coloring.get(neighbor)
            if assigned is not None:
                taken.add(assigned.index)
        free = [c for c in colors if c not in taken]
        if free:
            best = min(free, key=lambda c: (usage[c], c))
            coloring[pseudo] = Reg(best, pseudo=False)
            usage[best] += 1
        else:
            spilled.append(pseudo)
    return coloring, spilled


def _rewrite(func: Function, coloring: Dict[Reg, Reg]) -> None:
    for block in func.blocks:
        block.insts = [rewrite_registers(inst, coloring) for inst in block.insts]
    func.invalidate_analyses()


def _spill_slot_name(func: Function) -> str:
    index = 0
    while f"_spill{index}" in func.frame:
        index += 1
    return f"_spill{index}"


def _spill(func: Function, pseudo: Reg) -> None:
    """Rewrite *pseudo* to live in a new stack slot."""
    slot = func.add_local(_spill_slot_name(func), 1, "int", False)
    addr = BinOp("add", FP, Const(slot.offset)) if slot.offset else FP

    from repro.analysis.defuse import rewrite_uses

    for block in func.blocks:
        new_insts: List[Instruction] = []
        for inst in block.insts:
            uses_pseudo = pseudo in inst.uses()
            defines_pseudo = pseudo in inst.defs()
            if uses_pseudo:
                load_temp = func.new_reg()
                new_insts.append(Assign(load_temp, Mem(addr)))
                inst = rewrite_uses(inst, {pseudo: load_temp})
            if defines_pseudo:
                store_temp = func.new_reg()
                assert isinstance(inst, Assign) and inst.dst == pseudo
                inst = Assign(store_temp, inst.src)
                new_insts.append(inst)
                new_insts.append(Assign(Mem(addr), store_temp))
            else:
                new_insts.append(inst)
        block.insts = new_insts
    func.invalidate_analyses()
