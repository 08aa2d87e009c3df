"""An interpreter for RTL programs.

Execution model (the runtime conventions the compiler targets):

- each call activates a fresh register file (so r4..r12 behave as
  callee-saved at no cost); calls deterministically clobber r0..r3 in
  the caller, with r0 receiving the return value;
- the stack grows upward from ``STACK_BASE``; each frame occupies the
  function's ``frame_size`` bytes and ``fp`` (r13) points at its base;
- memory is word-addressed storage initialized to zero, with globals
  laid out by :class:`~repro.ir.function.Program`;
- the activation-record management the paper's compiler inserts as a
  compulsory phase after the last code-improving phase is performed by
  the interpreter's call sequence itself, keeping it outside the
  enumerated search space exactly as the paper does.

Dynamic instruction counts are recorded per function, mirroring the
paper's use of dynamic counts as the execution-efficiency proxy.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.ir.function import Function, Program
from repro.ir.instructions import (
    Assign,
    Call,
    Compare,
    CondBranch,
    Jump,
    Return,
)
from repro.ir.operands import BinOp, Const, Expr, Mem, Reg, Sym, UnOp
from repro.machine.target import DEFAULT_TARGET

Number = Union[int, float]

STACK_BASE = 0x40000


class VMError(Exception):
    """A runtime error during RTL interpretation."""


class VMFuelExhausted(VMError):
    """The configured dynamic instruction budget was exceeded."""


class ExecutionResult:
    """Outcome of one program execution."""

    __slots__ = ("value", "total_insts", "per_function", "cycles")

    def __init__(self, value, total_insts, per_function, cycles):
        self.value = value
        self.total_insts = total_insts
        self.per_function = per_function
        self.cycles = cycles

    def __repr__(self):
        return (
            f"<ExecutionResult value={self.value} insts={self.total_insts} "
            f"cycles={self.cycles}>"
        )


def _mask32(value: int) -> int:
    value &= 0xFFFFFFFF
    if value >= 0x80000000:
        value -= 0x100000000
    return value


class _Frame:
    __slots__ = ("regs", "cc", "fp")

    def __init__(self, fp: int):
        self.regs: Dict[int, Number] = {13: fp, 14: fp}
        self.cc = 0
        self.fp = fp


class Interpreter:
    """Execute functions of a :class:`Program`."""

    def __init__(
        self,
        program: Program,
        fuel: int = 10_000_000,
        profile_blocks: bool = False,
    ):
        self.program = program
        self.fuel = fuel
        self.memory: Dict[int, Number] = {}
        self._init_globals()
        self.total_insts = 0
        self.per_function: Dict[str, int] = {}
        self.cycles = 0
        self._stack_top = STACK_BASE
        #: when profiling, (function name, block label) -> execution count
        self.profile_blocks = profile_blocks
        self.block_counts: Dict[Tuple[str, str], int] = {}

    def _init_globals(self) -> None:
        for var in self.program.globals.values():
            for i, value in enumerate(var.init):
                self.memory[var.address + 4 * i] = value

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def run(self, name: str, args: Sequence[Number] = ()) -> ExecutionResult:
        """Call function *name* with *args*; returns the result."""
        value = self._call(name, list(args))
        return ExecutionResult(
            value, self.total_insts, dict(self.per_function), self.cycles
        )

    def load_global(self, name: str, index: int = 0) -> Number:
        """Read a global scalar or array element (for assertions)."""
        var = self.program.globals[name]
        return self.memory.get(var.address + 4 * index, 0)

    def store_global(self, name: str, value: Number, index: int = 0) -> None:
        var = self.program.globals[name]
        self.memory[var.address + 4 * index] = value

    def global_address(self, name: str) -> int:
        return self.program.globals[name].address

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _call(self, name: str, args: List[Number]) -> Number:
        func = self.program.functions.get(name)
        if func is None:
            raise VMError(f"call to unknown function {name!r}")
        if len(args) > 4:
            raise VMError("at most 4 arguments are supported")
        frame = _Frame(self._stack_top)
        self._stack_top += max(func.frame_size, 4)
        for i, value in enumerate(args):
            frame.regs[i] = value
        try:
            return self._execute(func, frame)
        finally:
            self._stack_top -= max(func.frame_size, 4)

    def _execute(self, func: Function, frame: _Frame) -> Number:
        blocks = func.blocks
        index_of = {block.label: i for i, block in enumerate(blocks)}
        block_index = 0
        count = self.per_function.get(func.name, 0)
        while True:
            block = blocks[block_index]
            if self.profile_blocks:
                key = (func.name, block.label)
                self.block_counts[key] = self.block_counts.get(key, 0) + 1
            transfer: Optional[str] = None
            returned = False
            for inst in block.insts:
                self.total_insts += 1
                count += 1
                self.cycles += DEFAULT_TARGET.cost(inst)
                if self.total_insts > self.fuel:
                    self.per_function[func.name] = count
                    raise VMFuelExhausted(
                        f"exceeded {self.fuel} dynamic instructions"
                    )
                if isinstance(inst, Assign):
                    self._assign(inst, frame)
                elif isinstance(inst, Compare):
                    left = self._eval(inst.left, frame)
                    right = self._eval(inst.right, frame)
                    frame.cc = (left > right) - (left < right)
                elif isinstance(inst, CondBranch):
                    if self._branch_taken(inst.relop, frame.cc):
                        transfer = inst.target
                elif isinstance(inst, Jump):
                    transfer = inst.target
                elif isinstance(inst, Call):
                    self.per_function[func.name] = count
                    result = self._call(
                        inst.name, [frame.regs.get(i, 0) for i in range(inst.nargs)]
                    )
                    count = self.per_function.get(func.name, 0)
                    frame.regs[0] = result if result is not None else 0
                    frame.regs[1] = 0
                    frame.regs[2] = 0
                    frame.regs[3] = 0
                elif isinstance(inst, Return):
                    returned = True
                else:
                    raise VMError(f"cannot execute {inst!r}")
                if transfer is not None or returned:
                    break
            if returned:
                self.per_function[func.name] = count
                if func.returns_value:
                    return frame.regs.get(0, 0)
                return None
            if transfer is not None:
                block_index = index_of[transfer]
            else:
                block_index += 1
                if block_index >= len(blocks):
                    raise VMError(f"{func.name}: fell off the function end")

    @staticmethod
    def _branch_taken(relop: str, cc: int) -> bool:
        if relop == "lt":
            return cc < 0
        if relop == "le":
            return cc <= 0
        if relop == "gt":
            return cc > 0
        if relop == "ge":
            return cc >= 0
        if relop == "eq":
            return cc == 0
        return cc != 0

    def _assign(self, inst: Assign, frame: _Frame) -> None:
        value = self._eval(inst.src, frame)
        dst = inst.dst
        if isinstance(dst, Reg):
            frame.regs[self._reg_key(dst)] = value
        else:
            address = self._eval(dst.addr, frame)
            if not isinstance(address, int):
                raise VMError(f"non-integer store address {address!r}")
            self.memory[address] = value

    @staticmethod
    def _reg_key(reg: Reg):
        # Pseudo and hardware registers live in disjoint key spaces so
        # unoptimized (pre-assignment) code executes directly.
        return reg.index if not reg.pseudo else ("t", reg.index)

    def _eval(self, expr: Expr, frame: _Frame) -> Number:
        if isinstance(expr, Reg):
            return frame.regs.get(self._reg_key(expr), 0)
        if isinstance(expr, Const):
            return expr.value
        if isinstance(expr, Sym):
            var = self.program.globals.get(expr.name)
            if var is None:
                raise VMError(f"unknown global {expr.name!r}")
            if expr.part == "hi":
                return var.address & ~0xFFFF
            return var.address & 0xFFFF
        if isinstance(expr, Mem):
            address = self._eval(expr.addr, frame)
            if not isinstance(address, int):
                raise VMError(f"non-integer load address {address!r}")
            return self.memory.get(address, 0)
        if isinstance(expr, BinOp):
            left = self._eval(expr.left, frame)
            right = self._eval(expr.right, frame)
            return self._binop(expr.op, left, right)
        if isinstance(expr, UnOp):
            value = self._eval(expr.operand, frame)
            return self._unop(expr.op, value)
        raise VMError(f"cannot evaluate {expr!r}")

    @staticmethod
    def _binop(op: str, left: Number, right: Number) -> Number:
        if op == "add":
            return _mask32(left + right)
        if op == "sub":
            return _mask32(left - right)
        if op == "mul":
            return _mask32(left * right)
        if op == "div":
            if right == 0:
                raise VMError("integer division by zero")
            return _mask32(int(left / right))
        if op == "rem":
            if right == 0:
                raise VMError("integer remainder by zero")
            return _mask32(left - int(left / right) * right)
        if op == "and":
            return _mask32(int(left) & int(right))
        if op == "or":
            return _mask32(int(left) | int(right))
        if op == "xor":
            return _mask32(int(left) ^ int(right))
        if op == "lsl":
            return _mask32(int(left) << (int(right) & 31))
        if op == "lsr":
            return _mask32((int(left) & 0xFFFFFFFF) >> (int(right) & 31))
        if op == "asr":
            return _mask32(int(left) >> (int(right) & 31))
        if op == "fadd":
            return float(left) + float(right)
        if op == "fsub":
            return float(left) - float(right)
        if op == "fmul":
            return float(left) * float(right)
        if op == "fdiv":
            if right == 0:
                raise VMError("float division by zero")
            return float(left) / float(right)
        raise VMError(f"unknown operator {op!r}")

    @staticmethod
    def _unop(op: str, value: Number) -> Number:
        if op == "neg":
            return _mask32(-value)
        if op == "not":
            return _mask32(~int(value))
        if op == "fneg":
            return -float(value)
        if op == "itof":
            return float(value)
        if op == "ftoi":
            return _mask32(int(value))
        raise VMError(f"unknown unary operator {op!r}")
