"""Tests for the deep IR well-formedness validator."""

import pytest

from repro.core.batch import BatchCompiler
from repro.core.dag import materialize_instances
from repro.core.enumeration import EnumerationConfig, enumerate_space
from repro.ir.function import LocalSlot
from repro.ir.instructions import Assign, Jump
from repro.ir.operands import Const, Reg
from repro.ir.validate import IRValidationError, check_ir, validate_ir
from repro.machine.target import DEFAULT_TARGET
from tests.conftest import GCD_SRC, MAXI_SRC, SQUARE_SRC, compile_fn


class TestCleanFunctions:
    def test_fresh_functions_validate(self):
        for src, name in [
            (SQUARE_SRC, "square"),
            (MAXI_SRC, "maxi"),
            (GCD_SRC, "gcd"),
        ]:
            func = compile_fn(src, name)
            assert check_ir(func, DEFAULT_TARGET) == []

    def test_batch_compiled_functions_validate(self):
        for src, name in [(MAXI_SRC, "maxi"), (GCD_SRC, "gcd")]:
            func = compile_fn(src, name)
            BatchCompiler().compile(func)
            assert check_ir(func, DEFAULT_TARGET) == []

    def test_every_enumerated_instance_validates(self):
        """No false positives across a whole enumerated space."""
        root = compile_fn(MAXI_SRC, "maxi")
        result = enumerate_space(root, EnumerationConfig())
        assert result.completed
        materialize_instances(result.dag, root)
        for node in result.dag.nodes.values():
            assert node.function is not None
            validate_ir(node.function, DEFAULT_TARGET)


class TestStructuralBreakage:
    def test_branch_to_unknown_label(self, maxi_func):
        last = maxi_func.blocks[-1]
        last.insts[-1] = Jump("__nowhere__")
        problems = check_ir(maxi_func, DEFAULT_TARGET)
        assert problems
        assert "__nowhere__" in problems[0]

    def test_structural_problems_short_circuit(self, maxi_func):
        # Structural breakage returns immediately with one problem even
        # if deeper checks would also fire.
        maxi_func.blocks[-1].insts[-1] = Jump("__nowhere__")
        maxi_func.frame["bad"] = LocalSlot("bad", 0, 4, "int", False, False)
        assert len(check_ir(maxi_func)) == 1


class TestRegisterDiscipline:
    def test_pseudo_after_register_assignment(self, maxi_func):
        BatchCompiler().compile(maxi_func)
        assert maxi_func.reg_assigned
        entry = maxi_func.blocks[0]
        entry.insts.insert(0, Assign(Reg(3, pseudo=True), Const(1)))
        problems = check_ir(maxi_func)
        assert any("after register assignment" in p for p in problems)

    def test_unallocated_pseudo(self, square_func):
        assert not square_func.reg_assigned
        bogus = square_func.next_pseudo + 5
        entry = square_func.blocks[0]
        entry.insts.insert(0, Assign(Reg(bogus, pseudo=True), Const(1)))
        problems = check_ir(square_func)
        assert any("never allocated" in p for p in problems)

    def test_hardware_register_out_of_file(self, square_func):
        entry = square_func.blocks[0]
        entry.insts.insert(0, Assign(Reg(20, pseudo=False), Const(1)))
        problems = check_ir(square_func)
        assert any("outside the register file" in p for p in problems)

    def test_dangling_register_use(self, square_func):
        # A use with no preceding definition is live into the entry
        # block, which the validator reports as dangling.
        used = square_func.next_pseudo - 1
        entry = square_func.blocks[0]
        entry.insts.insert(0, Assign(Reg(0, pseudo=False), Reg(used, pseudo=True)))
        problems = check_ir(square_func)
        assert any("dangling registers" in p for p in problems)


class TestFrameConsistency:
    def test_overlapping_slots(self, square_func):
        square_func.frame["x"] = LocalSlot("x", 0, 2, "int", False, False)
        square_func.frame["y"] = LocalSlot("y", 4, 1, "int", False, False)
        square_func.frame_size = 8
        problems = check_ir(square_func)
        assert any("overlap" in p for p in problems)

    def test_slot_outside_frame(self, square_func):
        square_func.frame["x"] = LocalSlot("x", 0, 2, "int", False, False)
        square_func.frame_size = 4
        problems = check_ir(square_func)
        assert any("outside the frame" in p for p in problems)


class TestValidateIr:
    def test_raises_with_context(self, maxi_func):
        maxi_func.blocks[-1].insts[-1] = Jump("__nowhere__")
        with pytest.raises(IRValidationError) as info:
            validate_ir(maxi_func, DEFAULT_TARGET)
        assert info.value.function_name == "maxi"
        assert info.value.problems
        assert "maxi" in str(info.value)

    def test_silent_on_valid_ir(self, maxi_func):
        validate_ir(maxi_func, DEFAULT_TARGET)

    def test_exported_from_package(self):
        import repro.ir as ir

        assert ir.check_ir is check_ir
        assert ir.validate_ir is validate_ir
        assert ir.IRValidationError is IRValidationError
