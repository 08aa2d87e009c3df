"""Phase r — reverse branches.

Table 1: "Removes an unconditional jump by reversing a conditional
branch branching over the jump."

Pattern::

    B1:  ... ; IC=... ; PC=IC cc 0, L2
    B2:  PC=L3                            (only reached from B1)
    L2:  ...

becomes::

    B1:  ... ; IC=... ; PC=IC !cc 0, L3
    L2:  ...
"""

from __future__ import annotations

from repro.analysis.cache import cfg_of
from repro.ir.function import Function
from repro.ir.instructions import CondBranch, INVERTED_RELOP, Jump
from repro.opt.base import Phase


class ReverseBranches(Phase):
    id = "r"
    name = "reverse branches"
    #: contract: requires nothing, establishes nothing, preserves
    #: every monotone invariant (see staticanalysis/contracts.py)
    contract_requires = ()
    contract_establishes = ()
    contract_breaks = ()

    def run(self, func: Function) -> bool:
        changed = False
        while True:
            cfg = cfg_of(func)
            applied = False
            for i in range(len(func.blocks) - 2):
                upper = func.blocks[i]
                middle = func.blocks[i + 1]
                lower = func.blocks[i + 2]
                term = upper.terminator()
                if not isinstance(term, CondBranch):
                    continue
                if term.target != lower.label:
                    continue
                if len(middle.insts) != 1 or not isinstance(middle.insts[0], Jump):
                    continue
                if cfg.preds.get(middle.label) != [upper.label]:
                    continue
                jump_target = middle.insts[0].target
                if jump_target == middle.label:
                    continue  # degenerate self-loop
                upper.insts[-1] = CondBranch(
                    INVERTED_RELOP[term.relop], jump_target
                )
                del func.blocks[i + 1]
                func.invalidate_analyses()
                applied = True
                changed = True
                break
            if not applied:
                return changed
