"""The fifteen candidate optimization phases (Table 1 of the paper).

======  ================================  ==============================
Letter  Phase                             Ordering restrictions
======  ================================  ==============================
b       branch chaining
c       common subexpression elimination  triggers register assignment
d       remove unreachable code
g       loop unrolling                    after register allocation (k)
h       dead assignment elimination
i       block reordering
j       minimize loop jumps
k       register allocation               after instruction selection (s);
                                          triggers register assignment
l       loop transformations              after register allocation (k)
n       code abstraction
o       evaluation order determination    before register assignment
q       strength reduction
r       reverse branches
s       instruction selection
u       remove useless jumps
======  ================================  ==============================
"""

from repro.opt.base import (
    Phase,
    apply_phase,
    attempt_phase_on_clone,
)
from repro.opt.cleanup import implicit_cleanup
from repro.opt.register_assignment import assign_registers

from repro.opt.branch_chaining import BranchChaining
from repro.opt.cse import CommonSubexpressionElimination
from repro.opt.unreachable import RemoveUnreachableCode
from repro.opt.loop_unrolling import LoopUnrolling
from repro.opt.dead_assign import DeadAssignmentElimination
from repro.opt.block_reordering import BlockReordering
from repro.opt.loop_jumps import MinimizeLoopJumps
from repro.opt.regalloc import RegisterAllocation
from repro.opt.loop_transforms import LoopTransformations
from repro.opt.code_abstraction import CodeAbstraction
from repro.opt.eval_order import EvaluationOrderDetermination
from repro.opt.strength_reduction import StrengthReduction
from repro.opt.reverse_branches import ReverseBranches
from repro.opt.instruction_selection import InstructionSelection
from repro.opt.useless_jumps import RemoveUselessJumps

#: all candidate phases in the paper's Table 1 order
PHASES = (
    BranchChaining(),
    CommonSubexpressionElimination(),
    RemoveUnreachableCode(),
    LoopUnrolling(),
    DeadAssignmentElimination(),
    BlockReordering(),
    MinimizeLoopJumps(),
    RegisterAllocation(),
    LoopTransformations(),
    CodeAbstraction(),
    EvaluationOrderDetermination(),
    StrengthReduction(),
    ReverseBranches(),
    InstructionSelection(),
    RemoveUselessJumps(),
)

PHASE_IDS = tuple(phase.id for phase in PHASES)

_BY_ID = {phase.id: phase for phase in PHASES}


def phase_by_id(phase_id: str) -> Phase:
    """Look up a phase by its single-letter designation."""
    return _BY_ID[phase_id]


__all__ = [
    "Phase",
    "apply_phase",
    "attempt_phase_on_clone",
    "implicit_cleanup",
    "assign_registers",
    "PHASES",
    "PHASE_IDS",
    "phase_by_id",
    "BranchChaining",
    "CommonSubexpressionElimination",
    "RemoveUnreachableCode",
    "LoopUnrolling",
    "DeadAssignmentElimination",
    "BlockReordering",
    "MinimizeLoopJumps",
    "RegisterAllocation",
    "LoopTransformations",
    "CodeAbstraction",
    "EvaluationOrderDetermination",
    "StrengthReduction",
    "ReverseBranches",
    "InstructionSelection",
    "RemoveUselessJumps",
]
