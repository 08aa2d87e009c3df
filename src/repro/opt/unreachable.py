"""Phase d — remove unreachable code.

Table 1: "Removes basic blocks that cannot be reached from the function
entry block."
"""

from __future__ import annotations

from repro.analysis.cache import cfg_of
from repro.ir.function import Function
from repro.opt.base import Phase


class RemoveUnreachableCode(Phase):
    id = "d"
    name = "remove unreachable code"
    #: contract: requires nothing, establishes nothing, preserves
    #: every monotone invariant (see staticanalysis/contracts.py)
    contract_requires = ()
    contract_establishes = ()
    contract_breaks = ()

    def run(self, func: Function) -> bool:
        cfg = cfg_of(func)
        reachable = cfg.reachable(func.entry.label)
        if all(block.label in reachable for block in func.blocks):
            return False
        func.blocks = [block for block in func.blocks if block.label in reachable]
        func.invalidate_analyses()
        return True
