"""Flat phase kernels: the enumeration inner loop over interned ids.

Thirteen of the fifteen candidate phases have *kernels* — ports of the
object phase onto :class:`~repro.ir.flat.FlatFunction` that make
bit-identical decisions (same active/dormant verdict, same resulting
code) while operating on integer instruction ids and register
bitmasks.  The two loop-restructuring phases (g and l) transparently
round-trip through the object IR via :func:`repro.ir.flat.from_flat` /
:func:`~repro.ir.flat.to_flat`; porting them buys little because they
fire rarely and mutate heavily when they do.

:func:`attempt_phase_on_flat` is the flat mirror of
:func:`repro.opt.base.attempt_phase_on_clone` — at most one clone per
attempt, none for an illegal phase, dormant returns ``None`` with the
input untouched — including the implicit cleanup fixpoint and the
legality-flag updates, so a flat-engine DAG node carries exactly the
state its object-engine twin would.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.analysis.flat import flat_loops_of
from repro.ir.flat import FlatFunction, from_flat, to_flat
from repro.opt import PHASES
from repro.opt.base import Phase, attempt_phase_on_clone
from repro.opt.flat.abstraction import CodeAbstractionKernel
from repro.opt.flat.assign import flat_assign_registers
from repro.opt.flat.cflow import (
    BlockReorderingKernel,
    BranchChainingKernel,
    RemoveUnreachableCodeKernel,
    RemoveUselessJumpsKernel,
    ReverseBranchesKernel,
)
from repro.opt.flat.cleanup import flat_implicit_cleanup
from repro.opt.flat.cse import CommonSubexpressionEliminationKernel
from repro.opt.flat.deadassign import DeadAssignmentEliminationKernel
from repro.opt.flat.evalorder import EvaluationOrderDeterminationKernel
from repro.opt.flat.loopjumps import MinimizeLoopJumpsKernel
from repro.opt.flat.regalloc import RegisterAllocationKernel
from repro.opt.flat.selection import InstructionSelectionKernel
from repro.opt.flat.strength import StrengthReductionKernel
from repro.opt.flat.support import FlatKernel

#: phase id -> kernel instance; phases absent here use the object fallback
FLAT_KERNELS: Dict[str, FlatKernel] = {
    kernel.id: kernel
    for kernel in (
        BranchChainingKernel(),
        CommonSubexpressionEliminationKernel(),
        RemoveUnreachableCodeKernel(),
        DeadAssignmentEliminationKernel(),
        BlockReorderingKernel(),
        MinimizeLoopJumpsKernel(),
        RegisterAllocationKernel(),
        CodeAbstractionKernel(),
        EvaluationOrderDeterminationKernel(),
        StrengthReductionKernel(),
        ReverseBranchesKernel(),
        InstructionSelectionKernel(),
        RemoveUselessJumpsKernel(),
    )
}

#: the stock phase instances, by id — the only objects the kernels are
#: verified against
_STOCK_PHASES = {phase.id: phase for phase in PHASES}


def flat_cleanup_fixpoint(flat: FlatFunction, kernel: FlatKernel) -> None:
    """Implicit cleanup + re-run to a joint fixpoint (mirror of base)."""
    flat_implicit_cleanup(flat)
    for _ in range(100):
        if not kernel.run(flat):
            return
        flat_implicit_cleanup(flat)
    raise RuntimeError(
        f"{flat.name}: phase {kernel.id} did not reach a fixpoint with cleanup"
    )


def attempt_phase_on_flat(
    flat: FlatFunction,
    phase: Phase,
    view_cache: Optional[dict] = None,
) -> Optional[FlatFunction]:
    """Attempt *phase* on a clone of *flat*; ``None`` when dormant.

    Kernels dispatch on ``phase.id`` and are verified against the stock
    phase instances only, so any other phase object carrying a stock id
    (a test wrapper, an instrumented phase) takes the object-view
    fallback for itself alone, like the two phases without a kernel.

    *view_cache*, when given, is a per-node scratch dict the fallback
    path stores its materialized object view in, so a caller attempting
    several fallback phases on one node converts once.  The cached view
    is never mutated (``attempt_phase_on_clone`` works on a clone).
    """
    stock = _STOCK_PHASES.get(phase.id) is phase
    kernel = FLAT_KERNELS.get(phase.id) if stock else None
    if kernel is None:
        # The stock fallback phases (g, l) gate on legality flags only,
        # which FlatFunction carries, and restructure natural loops: on
        # a loop-free function they are dormant without ever mutating,
        # so the (content-cached) flat loop analysis settles the
        # verdict before any object-IR view is materialized.
        if stock and (not phase.applicable(flat) or not flat_loops_of(flat)):
            return None
        func = view_cache.get("view") if view_cache is not None else None
        if func is None:
            func = from_flat(flat)
            if view_cache is not None:
                view_cache["view"] = func
        candidate = attempt_phase_on_clone(func, phase)
        return None if candidate is None else to_flat(candidate)

    if not kernel.applicable(flat):
        return None
    candidate = flat.clone()
    if kernel.requires_assignment and not candidate.reg_assigned:
        flat_assign_registers(candidate)
        candidate.reg_assigned = True
    if not kernel.run(candidate):
        return None
    flat_cleanup_fixpoint(candidate, kernel)
    if phase.id == "s":
        candidate.sel_applied = True
    elif phase.id == "k":
        candidate.alloc_applied = True
    return candidate

