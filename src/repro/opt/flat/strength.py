"""Flat kernel for phase q — strength reduction.

The multiply expansion itself is the object implementation's
``expand_multiply``; what the kernel adds is a per-instruction cache
of the expansion result as interned ids, so the pattern
match and sequence construction happen once per distinct multiply.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.ir.flat import (
    INST_OBJS,
    KIND,
    K_ASSIGN,
    FlatFunction,
    block_id,
    intern_inst,
)
from repro.ir.operands import BinOp, Const, Reg
from repro.opt.flat.support import FlatKernel
from repro.opt.strength_reduction import expand_multiply

_EXPANSIONS: Dict[int, Optional[Tuple[int, ...]]] = {}

#: whole-block expansion: block id -> expanded tuple, or ``False`` when
#: no instruction in the block is an expandable multiply
_BLOCKS: Dict[int, object] = {}
_BLOCKS_MAX = 1 << 18
_MISSING = object()


def _expansion(iid: int) -> Optional[Tuple[int, ...]]:
    if iid in _EXPANSIONS:
        return _EXPANSIONS[iid]
    result: Optional[Tuple[int, ...]] = None
    if KIND[iid] == K_ASSIGN:
        inst = INST_OBJS[iid]
        src = inst.src
        if (
            isinstance(src, BinOp)
            and src.op == "mul"
            and isinstance(src.left, Reg)
            and isinstance(src.right, Const)
            and isinstance(src.right.value, int)
        ):
            expanded = expand_multiply(inst.dst, src.left, src.right.value)
            if expanded is not None:
                result = tuple(intern_inst(new) for new in expanded)
    _EXPANSIONS[iid] = result
    return result


class StrengthReductionKernel(FlatKernel):
    id = "q"

    def run(self, flat: FlatFunction) -> bool:
        changed = False
        for bi, block in enumerate(flat.blocks):
            bid = block_id(tuple(block))
            result = _BLOCKS.get(bid, _MISSING)
            if result is _MISSING:
                expanded_any = False
                new_block: List[int] = []
                for iid in block:
                    expansion = _expansion(iid)
                    if expansion is None:
                        new_block.append(iid)
                    else:
                        new_block.extend(expansion)
                        expanded_any = True
                result = tuple(new_block) if expanded_any else False
                if len(_BLOCKS) >= _BLOCKS_MAX:
                    _BLOCKS.clear()
                _BLOCKS[bid] = result
            if result is not False:
                flat.blocks[bi] = list(result)
                changed = True
        if changed:
            flat.invalidate_analyses()
        return changed
