"""IR sanitizer: dataflow-powered legality checks with diagnostic codes.

Every check produces a :class:`Finding` with a stable code so tests,
quarantine records and the lint report can key on *what* went wrong,
not on message phrasing:

========  =========================================================
code      meaning
========  =========================================================
CFG001    function has no blocks
CFG002    duplicate block label within one function
CFG003    control transfer not at the end of its block
CFG004    branch to a label that does not exist
CFG005    last block falls off the end of the function
CFG006    no Return is reachable from the entry block
CFG007    a reachable block cannot reach any function exit
CFG008    branch to a label defined in another function's namespace
DFA001    register may be used before any definition reaches it
DFA002    conditional branch may execute with the condition code unset
MACH001   instruction shape is illegal for the target machine
MACH002   immediate operand exceeds the target's width limits
MACH003   hardware register outside the register file
MACH004   pseudo register present after register assignment
MACH005   pseudo register index was never allocated
FRAME001  frame slot extends outside the frame
FRAME002  frame slots overlap
FRAME003  frame reference with a known offset is out of bounds
CC001     dangling registers live into the entry block
CC002     return-value register may be uninitialized at a return
CC003     call to a function the program does not define
CC004     call argument count disagrees with the callee's parameters
MEM001    load from a compile-time-constant address (wild load)
MEM002    store to a compile-time-constant address (wild store)
MEM003    access at an address that is provably misaligned
MEM004    global access with a known offset outside the object
========  =========================================================

The sanitizer runs in two modes.  **fast** covers everything the
legacy ``ir/validate.py`` battery did (structure, machine legality,
register discipline, frame layout, entry liveness) plus the two checks
it historically missed — duplicate labels and cross-function branch
targets.  **full** adds the definedness dataflow (DFA001/DFA002,
CC002), frame-reference bounds (FRAME003) and the memory-access
checks (MEM001-MEM004, see :mod:`.memcheck`).  Structural findings
short-circuit: dataflow over a malformed CFG would be meaningless.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.analysis.framerefs import (
    _OTHER,
    _eval_abstract,
    _meet,
    _mem_exprs,
    _transfer as _frame_transfer,
)
from repro.analysis.cache import cfg_of, liveness_of
from repro.analysis.reaching import entry_defined_for, uninitialized_uses
from repro.ir.cfg import CFG, build_cfg
from repro.ir.function import Function, Program
from repro.ir.instructions import Call, CondBranch, Jump, Return
from repro.ir.operands import Reg
from repro.machine.target import DEFAULT_TARGET, NUM_HW_REGS, RV, Target

#: sanitizer modes, in increasing strength/cost order
FAST = "fast"
FULL = "full"
MODES = (FAST, FULL)

#: a Target with effectively unbounded immediates: an instruction that
#: is illegal for the real target but legal here has a pure *width*
#: problem (MACH002) rather than a shape problem (MACH001)
_WIDE_TARGET = Target(
    alu_imm_limit=1 << 60, mem_offset_limit=1 << 60, cmp_imm_limit=1 << 60
)


class Finding:
    """One sanitizer diagnostic: code + location + human detail."""

    __slots__ = ("code", "function", "where", "detail")

    def __init__(self, code: str, function: str, where: str, detail: str):
        self.code = code
        self.function = function
        self.where = where
        self.detail = detail

    def __str__(self) -> str:
        return f"{self.code} {self.function}[{self.where}]: {self.detail}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Finding({self!s})"

    def to_dict(self) -> Dict[str, str]:
        return {
            "code": self.code,
            "function": self.function,
            "where": self.where,
            "detail": self.detail,
        }


def _program_labels(program: Program) -> Dict[str, str]:
    """Map every block label in *program* to its owning function."""
    owners: Dict[str, str] = {}
    for name, func in program.functions.items():
        for block in func.blocks:
            owners.setdefault(block.label, name)
    return owners


def structural_findings(
    func: Function, program: Optional[Program] = None
) -> List[Finding]:
    """CFG well-formedness: the checks that must pass before any
    dataflow over the function makes sense."""
    name = func.name
    if not func.blocks:
        return [Finding("CFG001", name, "-", "function has no blocks")]
    findings: List[Finding] = []
    seen: Dict[str, bool] = {}
    for block in func.blocks:
        if block.label in seen:
            findings.append(
                Finding(
                    "CFG002",
                    name,
                    block.label,
                    f"duplicate block labels: {block.label!r}",
                )
            )
        seen[block.label] = True
    labels = set(seen)
    owners = _program_labels(program) if program is not None else {}
    for block in func.blocks:
        for index, inst in enumerate(block.insts):
            if inst.is_transfer and index != len(block.insts) - 1:
                findings.append(
                    Finding(
                        "CFG003",
                        name,
                        block.label,
                        f"transfer not at block end (instruction {index})",
                    )
                )
            if isinstance(inst, (Jump, CondBranch)) and inst.target not in labels:
                owner = owners.get(inst.target)
                if owner is not None and owner != name:
                    findings.append(
                        Finding(
                            "CFG008",
                            name,
                            block.label,
                            f"branch to label {inst.target} defined in "
                            f"function {owner!r}",
                        )
                    )
                else:
                    findings.append(
                        Finding(
                            "CFG004",
                            name,
                            block.label,
                            f"branch to unknown label {inst.target}",
                        )
                    )
    last = func.blocks[-1]
    terminator = last.terminator()
    if terminator is None or not terminator.is_transfer:
        findings.append(
            Finding(
                "CFG005", name, last.label, "last block falls off the function"
            )
        )
    if findings:
        return findings

    # Structure is sound; reachability checks need the CFG.
    cfg = cfg_of(func)
    entry = func.entry.label
    reachable = cfg.reachable(entry)
    exits = {
        block.label
        for block in func.blocks
        if isinstance(block.terminator(), Return) and block.label in reachable
    }
    if not exits:
        findings.append(
            Finding(
                "CFG006", name, entry, "no Return is reachable from the entry block"
            )
        )
        return findings
    # Backward reachability from the exits: a reachable block outside
    # this set is an inescapable loop.
    can_exit = set(exits)
    stack = list(exits)
    while stack:
        label = stack.pop()
        for pred in cfg.preds.get(label, ()):
            if pred not in can_exit:
                can_exit.add(pred)
                stack.append(pred)
    for label in cfg.order:
        if label in reachable and label not in can_exit:
            findings.append(
                Finding(
                    "CFG007", name, label, "block cannot reach any function exit"
                )
            )
    return findings


def machine_findings(func: Function, target: Target) -> List[Finding]:
    """Target legality, operand widths and register discipline."""
    findings: List[Finding] = []
    name = func.name
    for block in func.blocks:
        for inst in block.insts:
            if not target.is_legal(inst):
                if _WIDE_TARGET.is_legal(inst):
                    findings.append(
                        Finding(
                            "MACH002",
                            name,
                            block.label,
                            f"immediate operand exceeds the target's width "
                            f"limits: {inst}",
                        )
                    )
                else:
                    findings.append(
                        Finding(
                            "MACH001",
                            name,
                            block.label,
                            f"illegal instruction for the target: {inst}",
                        )
                    )
            for reg in inst.defs() | inst.uses():
                findings.extend(_register_findings(func, block.label, reg))
    return findings


def register_discipline_findings(func: Function) -> List[Finding]:
    """The register-discipline subset of :func:`machine_findings`,
    usable without a target (legacy ``check_ir(func)`` callers)."""
    findings: List[Finding] = []
    for block in func.blocks:
        for inst in block.insts:
            for reg in inst.defs() | inst.uses():
                findings.extend(_register_findings(func, block.label, reg))
    return findings


def _register_findings(func: Function, where: str, reg: Reg) -> List[Finding]:
    if reg.pseudo:
        if func.reg_assigned:
            return [
                Finding(
                    "MACH004",
                    func.name,
                    where,
                    f"pseudo register {reg} present after register assignment",
                )
            ]
        if reg.index >= func.next_pseudo:
            return [
                Finding(
                    "MACH005",
                    func.name,
                    where,
                    f"pseudo register {reg} was never allocated",
                )
            ]
    elif not 0 <= reg.index < NUM_HW_REGS:
        return [
            Finding(
                "MACH003",
                func.name,
                where,
                f"hardware register {reg} outside the register file "
                f"(0..{NUM_HW_REGS - 1})",
            )
        ]
    return []


def frame_layout_findings(func: Function) -> List[Finding]:
    """Slot bounds and overlaps in the declared frame layout."""
    findings: List[Finding] = []
    slots = sorted(func.frame.values(), key=lambda slot: slot.offset)
    for slot in slots:
        if slot.offset < 0 or slot.offset + 4 * slot.words > func.frame_size:
            findings.append(
                Finding(
                    "FRAME001",
                    func.name,
                    slot.name,
                    f"slot {slot.name!r} at offset {slot.offset} "
                    f"({slot.words} words) lies outside the frame "
                    f"of {func.frame_size} bytes",
                )
            )
    for first, second in zip(slots, slots[1:]):
        if first.offset + 4 * first.words > second.offset:
            findings.append(
                Finding(
                    "FRAME002",
                    func.name,
                    second.name,
                    f"slots {first.name!r} and {second.name!r} overlap",
                )
            )
    return findings


def dangling_entry_findings(func: Function) -> List[Finding]:
    """CC001: registers live into entry beyond the calling convention."""
    liveness = liveness_of(func)
    entry = func.entry.label
    dangling = liveness.live_in.get(entry, frozenset()) - entry_defined_for(func)
    if not dangling:
        return []
    regs = ", ".join(str(reg) for reg in sorted(dangling, key=_reg_key))
    return [
        Finding(
            "CC001",
            func.name,
            entry,
            f"dangling registers live into the entry block: {regs}",
        )
    ]


def _reg_key(reg: Reg):
    return (reg.pseudo, reg.index)


def declared_arity(func: Function) -> int:
    """Parameter count of *func*.

    The frontend does not populate ``Function.params``; each parameter
    instead owns an ``is_param`` frame slot (its home after the entry
    spill), and no phase ever removes frame slots — so the slot count
    is the declared arity wherever it exceeds the ``params`` list.
    """
    slots = sum(1 for slot in func.frame.values() if slot.is_param)
    return max(len(func.params), slots)


def call_findings(func: Function, program: Program) -> List[Finding]:
    """CC003/CC004: calls resolved against the whole program."""
    findings: List[Finding] = []
    for block in func.blocks:
        for inst in block.insts:
            if not isinstance(inst, Call):
                continue
            callee = program.functions.get(inst.name)
            if callee is None:
                findings.append(
                    Finding(
                        "CC003",
                        func.name,
                        block.label,
                        f"call to unknown function {inst.name!r}",
                    )
                )
            elif declared_arity(callee) != inst.nargs:
                findings.append(
                    Finding(
                        "CC004",
                        func.name,
                        block.label,
                        f"call passes {inst.nargs} arguments but "
                        f"{inst.name!r} declares "
                        f"{declared_arity(callee)} parameters",
                    )
                )
    return findings


def definedness_findings(func: Function, cfg: Optional[CFG] = None) -> List[Finding]:
    """DFA001/DFA002/CC002 via the must-defined dataflow."""
    findings: List[Finding] = []
    for label, index, inst, regs in uninitialized_uses(func, cfg):
        where = f"{label}#{index}"
        if regs is None:
            findings.append(
                Finding(
                    "DFA002",
                    func.name,
                    where,
                    f"conditional branch may execute with the condition "
                    f"code unset: {inst}",
                )
            )
        elif isinstance(inst, Return) and regs == frozenset({RV}):
            findings.append(
                Finding(
                    "CC002",
                    func.name,
                    where,
                    f"return-value register {RV} may be uninitialized "
                    "at this return",
                )
            )
        else:
            regs_text = ", ".join(str(reg) for reg in sorted(regs, key=_reg_key))
            findings.append(
                Finding(
                    "DFA001",
                    func.name,
                    where,
                    f"registers may be used before definition: "
                    f"{regs_text} in {inst}",
                )
            )
    return findings


def frame_bounds_findings(func: Function, cfg: Optional[CFG] = None) -> List[Finding]:
    """FRAME003: frame references that resolve to a known fp offset
    outside ``[0, frame_size)``.

    Reuses the abstract fp-offset dataflow from
    :mod:`repro.analysis.framerefs` but, unlike ``compute_frame_refs``
    (which only classifies accesses to tracked scalar slots), inspects
    **every** integer-resolved offset.
    """
    if cfg is None:
        cfg = build_cfg(func)
    entry = func.entry.label
    in_states: Dict[str, Optional[Dict[Reg, object]]] = {
        block.label: None for block in func.blocks
    }
    in_states[entry] = {}
    order = cfg.reverse_postorder(entry)
    changed = True
    while changed:
        changed = False
        for label in order:
            state = in_states[label]
            if state is None:
                continue
            current = dict(state)
            for inst in func.block(label).insts:
                _frame_transfer(inst, current)
            for succ in cfg.succs.get(label, ()):
                existing = in_states[succ]
                if existing is None:
                    in_states[succ] = dict(current)
                    changed = True
                    continue
                merged = {
                    reg: _meet(existing.get(reg, _OTHER), current.get(reg, _OTHER))
                    for reg in set(existing) | set(current)
                }
                if merged != existing:
                    in_states[succ] = merged
                    changed = True
    findings: List[Finding] = []
    for label in order:
        state = in_states[label]
        current = dict(state) if state is not None else {}
        for index, inst in enumerate(func.block(label).insts):
            for mem, is_write in _mem_exprs(inst):
                value = _eval_abstract(mem.addr, current)
                if isinstance(value, int) and not (
                    0 <= value and value + 4 <= func.frame_size
                ):
                    access = "write" if is_write else "read"
                    findings.append(
                        Finding(
                            "FRAME003",
                            func.name,
                            f"{label}#{index}",
                            f"frame {access} at fp+{value} is outside the "
                            f"frame of {func.frame_size} bytes",
                        )
                    )
            _frame_transfer(inst, current)
    return findings


def sanitize_function(
    func: Function,
    program: Optional[Program] = None,
    mode: str = FULL,
) -> List[Finding]:
    """Run the sanitizer battery over one function.

    Structural findings short-circuit everything else; with a clean
    structure the remaining checks all run and their findings
    accumulate.  *program* (optional) enables the cross-function checks
    (CFG008, CC003, CC004).
    """
    if mode not in MODES:
        raise ValueError(f"unknown sanitizer mode {mode!r} (expected fast|full)")
    findings = structural_findings(func, program)
    if findings:
        return findings
    findings.extend(machine_findings(func, DEFAULT_TARGET))
    findings.extend(frame_layout_findings(func))
    findings.extend(dangling_entry_findings(func))
    if program is not None:
        findings.extend(call_findings(func, program))
    if mode == FULL:
        from repro.staticanalysis.memcheck import memory_findings

        cfg = cfg_of(func)
        findings.extend(definedness_findings(func, cfg))
        findings.extend(frame_bounds_findings(func, cfg))
        findings.extend(memory_findings(func, cfg, program))
    return findings


def sanitize_program(
    program: Program,
    mode: str = FULL,
) -> List[Finding]:
    """Sanitize every function of *program*, in definition order."""
    findings: List[Finding] = []
    for func in program.functions.values():
        findings.extend(sanitize_function(func, program, mode))
    return findings
