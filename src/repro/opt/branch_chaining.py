"""Phase b — branch chaining.

Table 1: "Replaces a branch or jump target with the target of the last
jump in the jump chain."

Per section 5.1 of the paper, unreachable code occasionally left behind
by branch chaining is removed during branch chaining itself (it would
otherwise hinder later analyses); a standalone unreachable-code phase
(d) still exists.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.analysis.cache import cfg_of
from repro.ir.function import Function
from repro.ir.instructions import CondBranch, Jump
from repro.opt.base import Phase


def _final_target(start: str, trivial: Dict[str, str]) -> str:
    """Follow a chain of jump-only blocks; stop on a cycle."""
    seen = {start}
    current = start
    while current in trivial:
        following = trivial[current]
        if following in seen:
            break
        seen.add(following)
        current = following
    return current


class BranchChaining(Phase):
    id = "b"
    name = "branch chaining"
    #: contract: requires nothing, establishes nothing, preserves
    #: every monotone invariant (see staticanalysis/contracts.py)
    contract_requires = ()
    contract_establishes = ()
    contract_breaks = ()

    def run(self, func: Function) -> bool:
        # Blocks consisting solely of an unconditional jump.
        trivial: Dict[str, str] = {}
        for block in func.blocks:
            if len(block.insts) == 1 and isinstance(block.insts[0], Jump):
                trivial[block.label] = block.insts[0].target

        changed = False
        for block in func.blocks:
            term = block.terminator()
            if isinstance(term, Jump):
                final = _final_target(term.target, trivial)
                if final != term.target:
                    block.insts[-1] = Jump(final)
                    changed = True
            elif isinstance(term, CondBranch):
                final = _final_target(term.target, trivial)
                if final != term.target:
                    block.insts[-1] = CondBranch(term.relop, final)
                    changed = True

        if changed:
            # Remove code made unreachable by the retargeting.  The
            # cache must be dropped first: the retargeting above mutated
            # terminators in place.
            func.invalidate_analyses()
            cfg = cfg_of(func)
            reachable = cfg.reachable(func.entry.label)
            func.blocks = [
                block for block in func.blocks if block.label in reachable
            ]
            func.invalidate_analyses()
        return changed
