"""Phase u — remove useless jumps.

Table 1: "Removes jumps and branches whose target is the following
positional block."
"""

from __future__ import annotations

from repro.ir.function import Function
from repro.ir.instructions import CondBranch, Jump
from repro.opt.base import Phase


class RemoveUselessJumps(Phase):
    id = "u"
    name = "remove useless jumps"
    #: contract: requires nothing, establishes nothing, preserves
    #: every monotone invariant (see staticanalysis/contracts.py)
    contract_requires = ()
    contract_establishes = ()
    contract_breaks = ()

    def run(self, func: Function) -> bool:
        changed = False
        for i, block in enumerate(func.blocks[:-1]):
            term = block.terminator()
            next_label = func.blocks[i + 1].label
            if isinstance(term, (Jump, CondBranch)) and term.target == next_label:
                block.insts.pop()
                changed = True
        if changed:
            func.invalidate_analyses()
        return changed
