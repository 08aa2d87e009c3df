"""Phase k — register allocation.

Table 1: "Uses graph coloring to replace references to a variable
within a live range with a register."

Like VPO's, this phase is only legal after instruction selection has
been applied (so that candidate loads and stores contain the addresses
of arguments or local scalars) and it requires the compulsory register
assignment.

Every scalar frame slot whose accesses are all resolvable (the
frame-reference analysis proves their fp offsets, and the function
contains no wild frame access) is a candidate.  Candidates are colored
against each other and against the hardware registers live or defined
anywhere within the slot's live range; a colored slot's loads and
stores become register-to-register moves — which instruction selection
typically collapses afterwards, exactly the enabling relation between
k and s the paper reports.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.analysis.cache import liveness_of, slot_liveness_of
from repro.ir.function import Function
from repro.ir.instructions import Assign, Instruction
from repro.ir.operands import Mem, Reg
from repro.machine.target import ALLOCATABLE
from repro.opt.base import Phase


class RegisterAllocation(Phase):
    id = "k"
    name = "register allocation"
    #: contract: legal only after instruction selection (mirrors applicable)
    contract_requires = ('selection-done',)
    contract_establishes = ('registers-assigned', 'no-pseudo-registers', 'allocation-done')
    contract_breaks = ()
    requires_assignment = True

    def applicable(self, func: Function) -> bool:
        return func.sel_applied

    def run(self, func: Function) -> bool:
        slot_liveness = slot_liveness_of(func)
        frame_refs = slot_liveness.frame_refs
        if frame_refs.has_wild:
            return False  # an unresolved frame access may alias any slot

        candidates = self._referenced_slots(func, frame_refs)
        if not candidates:
            return False

        liveness = liveness_of(func)
        forbidden, slot_edges = self._interference(
            func, candidates, liveness, slot_liveness
        )
        coloring = self._color(candidates, forbidden, slot_edges)
        if not coloring:
            return False
        self._rewrite(func, frame_refs, coloring)
        func.invalidate_analyses()
        return True

    @staticmethod
    def _referenced_slots(func: Function, frame_refs) -> List[int]:
        referenced: Set[int] = set()
        for block_refs in frame_refs.refs.values():
            for ref in block_refs:
                referenced |= ref.reads
                referenced |= ref.writes
        return sorted(referenced)

    @staticmethod
    def _interference(func, candidates, liveness, slot_liveness):
        candidate_set = set(candidates)
        forbidden: Dict[int, Set[int]] = {offset: set() for offset in candidates}
        slot_edges: Dict[int, Set[int]] = {offset: set() for offset in candidates}

        frame_refs = slot_liveness.frame_refs
        for block in func.blocks:
            # Block-boundary interference (covers live-through ranges in
            # blocks that never touch the slot).
            slots_in = set(slot_liveness.live_in[block.label]) & candidate_set
            if slots_in:
                regs_in = {
                    reg.index for reg in liveness.live_in[block.label] if not reg.pseudo
                }
                for offset in slots_in:
                    forbidden[offset] |= regs_in
                    for other in slots_in:
                        if other != offset:
                            slot_edges[offset].add(other)
            regs_after = liveness.live_after_each(block.label)
            slots_after = slot_liveness.live_after_each(block.label)
            refs = frame_refs.refs[block.label]
            for i, inst in enumerate(block.insts):
                # A write to a slot interferes even when the stored value
                # is dead (overwritten before any read): the rewrite still
                # materializes the store, and once slots share a register
                # a dead store physically clobbers the other slot's live
                # value — so a defined slot conflicts with everything live
                # across this instruction, exactly like a defined register.
                live_slots = (slots_after[i] | refs[i].writes) & candidate_set
                if not live_slots:
                    continue
                live_regs = {reg.index for reg in regs_after[i] if not reg.pseudo}
                defined = {reg.index for reg in inst.defs() if not reg.pseudo}
                for offset in live_slots:
                    forbidden[offset] |= live_regs | defined
                    for other in live_slots:
                        if other != offset:
                            slot_edges[offset].add(other)
        return forbidden, slot_edges

    @staticmethod
    def _color(candidates, forbidden, slot_edges) -> Dict[int, Reg]:
        coloring: Dict[int, Reg] = {}
        for offset in candidates:
            taken = set(forbidden[offset])
            for neighbor in slot_edges[offset]:
                assigned = coloring.get(neighbor)
                if assigned is not None:
                    taken.add(assigned.index)
            free = [c for c in ALLOCATABLE if c not in taken]
            if free:
                coloring[offset] = Reg(free[0], pseudo=False)
        return coloring

    @staticmethod
    def _rewrite(func: Function, frame_refs, coloring: Dict[int, Reg]) -> None:
        for block in func.blocks:
            refs = frame_refs.refs[block.label]
            new_insts: List[Instruction] = []
            for inst, ref in zip(block.insts, refs):
                replacement = inst
                read_hits = ref.reads & set(coloring)
                write_hits = ref.writes & set(coloring)
                if read_hits and isinstance(inst, Assign) and isinstance(inst.src, Mem):
                    (offset,) = read_hits
                    replacement = Assign(inst.dst, coloring[offset])
                elif (
                    write_hits
                    and isinstance(inst, Assign)
                    and isinstance(inst.dst, Mem)
                ):
                    (offset,) = write_hits
                    replacement = Assign(coloring[offset], inst.src)
                new_insts.append(replacement)
            block.insts = new_insts
