"""Phase framework: the Phase interface and application driver.

A phase is *active* when running it changes the code, and *dormant*
otherwise (paper section 4.1).  A phase that is illegal at the current
compilation state (e.g. evaluation order determination after register
assignment) is trivially dormant.

``apply_phase`` implements VPO's implicit behaviour around a phase:

- compulsory register assignment runs before the first phase in a
  sequence that requires it (c and k);
- the implicit merge-basic-blocks / eliminate-empty-blocks cleanup runs
  after any active phase (these only canonicalize control flow and are
  not part of the candidate phase set);
- the function's legality flags are updated when s or k is active.

A dormant attempt leaves the function unchanged (callers that need the
original must apply phases to a clone, as the enumerator does).

Cloning invariant (the enumeration hot path)
--------------------------------------------

Every object-IR phase attempt runs through
:func:`attempt_phase_on_clone`, which makes **at most one clone per
attempt, and none for a trivially-dormant phase**.  Callers that must
keep the parent — the object engine, the guarded runner, DAG
materialization — call it directly; ``apply_phase``, for the compilers
that optimize one function along one sequence, copies an active
candidate back into its argument.

- legality (``phase.applicable``) is checked *before* cloning, so an
  illegal phase costs nothing;
- one clone is made, and for ``requires_assignment`` phases the
  register assignment is committed directly on that clone (no
  scratch-and-copy-back: if the phase turns out dormant the clone is
  simply discarded, which is what preserves the dormant-leaves-the-
  parent-unchanged invariant);
- a dormant run returns ``None`` and the parent is untouched;
- an active run returns the clone after the implicit cleanup fixpoint
  and legality-flag update.

:class:`~repro.robustness.guard.GuardedPhaseRunner` runs its checks on
that same candidate, so a guarded attempt clones no more than an
unguarded one.  Outcomes (active/dormant) are counted by the caller,
once per attempt.
"""

from __future__ import annotations

from typing import List, Optional

from repro.ir.function import Function


class Phase:
    """Base class for the fifteen candidate optimization phases."""

    #: single-letter designation from Table 1 of the paper
    id: str = "?"
    name: str = "?"
    #: phase needs the compulsory register assignment to have run
    requires_assignment: bool = False
    #: phase-contract declarations (plain invariant-name tuples; the
    #: vocabulary and checker live in repro/staticanalysis/contracts.py):
    #: invariants that must hold before the phase runs,
    contract_requires: tuple = ()
    #: invariants any active application establishes,
    contract_establishes: tuple = ()
    #: and monotone invariants the phase is allowed to destroy.
    contract_breaks: tuple = ()

    def applicable(self, func: Function) -> bool:
        """Legality of attempting this phase in the current state."""
        return True

    def run(self, func: Function) -> bool:
        """Apply the phase in place; return True when code changed."""
        raise NotImplementedError

    def __repr__(self):
        return f"<Phase {self.id}: {self.name}>"


def apply_phase(func: Function, phase: Phase) -> bool:
    """Attempt *phase* on *func* with VPO's implicit behaviours.

    Returns True when the phase was active.  When the phase is dormant
    the function is left exactly as it was — including not committing
    the implicit register assignment, so a dormant attempt never
    changes the instance (see DESIGN.md).
    """
    candidate = attempt_phase_on_clone(func, phase)
    if candidate is None:
        return False
    _copy_into(candidate, func)
    return True


def attempt_phase_on_clone(func: Function, phase: Phase) -> Optional[Function]:
    """Attempt *phase* on a clone of *func*; None when dormant.

    Single-clone fast path for enumeration (see the module docstring
    for the invariant): *func* is never mutated, and at most one clone
    is made — none when the phase is illegal in the current state.
    """
    from repro.opt.register_assignment import assign_registers

    if not phase.applicable(func):
        return None
    candidate = func.clone()
    if phase.requires_assignment and not candidate.reg_assigned:
        assign_registers(candidate)
        candidate.reg_assigned = True
    if not phase.run(candidate):
        return None
    _cleanup_fixpoint(candidate, phase)
    _note_active(candidate, phase)
    return candidate


def _cleanup_fixpoint(func: Function, phase: Phase) -> None:
    """Run the implicit cleanup and re-run *phase* to a joint fixpoint.

    The implicit block merging can expose new opportunities for the
    phase that just ran (e.g. removing an empty block brings a
    conditional branch and the jump it skips next to each other for r).
    Re-running until dormant preserves the paper's invariant that no
    phase is ever successfully applied twice in a row.
    """
    from repro.opt.cleanup import implicit_cleanup

    implicit_cleanup(func)
    for _ in range(100):
        if not phase.run(func):
            return
        implicit_cleanup(func)
    raise RuntimeError(
        f"{func.name}: phase {phase.id} did not reach a fixpoint with cleanup"
    )


def _note_active(func: Function, phase: Phase) -> None:
    if phase.id == "s":
        func.sel_applied = True
    elif phase.id == "k":
        func.alloc_applied = True


def _copy_into(source: Function, dest: Function) -> None:
    """Overwrite *dest* in place with *source*'s state."""
    dest.blocks = source.blocks
    dest.frame = source.frame
    dest.frame_size = source.frame_size
    dest.next_pseudo = source.next_pseudo
    dest.next_label = source.next_label
    dest.reg_assigned = source.reg_assigned
    dest.sel_applied = source.sel_applied
    dest.alloc_applied = source.alloc_applied
    dest.unrolled = source.unrolled
    dest._analyses = source._analyses
