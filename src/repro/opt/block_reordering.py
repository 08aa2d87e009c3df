"""Phase i — block reordering.

Table 1: "Removes a jump by reordering blocks when the target of the
jump has only a single predecessor."

Two cases:

- the jump target is already the next positional block: the jump is
  simply deleted;
- otherwise the target block is moved to just after the jumping block
  and the jump deleted.  The moved block must end in an explicit
  transfer (or fall through, in which case an explicit jump to its old
  positional successor is appended first).  Blocks ending in a
  conditional branch are not moved, since their fallthrough successor
  cannot move with them.
"""

from __future__ import annotations

from repro.analysis.cache import cfg_of
from repro.ir.function import Function
from repro.ir.instructions import CondBranch, Jump, Return
from repro.opt.base import Phase


class BlockReordering(Phase):
    id = "i"
    name = "block reordering"
    #: contract: requires nothing, establishes nothing, preserves
    #: every monotone invariant (see staticanalysis/contracts.py)
    contract_requires = ()
    contract_establishes = ()
    contract_breaks = ()

    def run(self, func: Function) -> bool:
        changed = False
        while self._apply_once(func):
            changed = True
        return changed

    def _apply_once(self, func: Function) -> bool:
        cfg = cfg_of(func)
        for i, block in enumerate(func.blocks):
            term = block.terminator()
            if not isinstance(term, Jump):
                continue
            target_label = term.target
            if i + 1 < len(func.blocks) and func.blocks[i + 1].label == target_label:
                # Jump to the next positional block: delete it.
                block.insts.pop()
                func.invalidate_analyses()
                return True
            if target_label == func.entry.label:
                continue
            if len(cfg.preds.get(target_label, ())) != 1:
                continue
            if target_label == block.label:
                continue
            j = func.block_index(target_label)
            moved = func.blocks[j]
            moved_term = moved.terminator()
            if isinstance(moved_term, CondBranch):
                continue  # cannot carry its fallthrough along
            if moved_term is None:
                if j + 1 >= len(func.blocks):
                    continue
                moved.insts.append(Jump(func.blocks[j + 1].label))
            # Move the target block to just after the jumping block and
            # delete the jump.
            block.insts.pop()
            del func.blocks[j]
            insert_at = func.block_index(block.label) + 1
            func.blocks.insert(insert_at, moved)
            func.invalidate_analyses()
            return True
        return False
