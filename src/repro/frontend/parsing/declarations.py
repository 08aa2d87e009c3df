"""Top-level grammar: struct definitions, globals, functions, params."""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

from repro.frontend import ast
from repro.frontend.errors import CompileError
from repro.frontend.lexer import Token


class DeclarationsMixin:
    """Parse translation units, type specifiers, and declarators."""

    def parse_unit(self) -> ast.TranslationUnit:
        unit = ast.TranslationUnit()
        while not self.check("eof"):
            if (
                self.check("keyword", "struct")
                and self.peek().kind == "ident"
                and self.peek(2).value == "{"
            ):
                unit.structs.append(self._parse_struct_def())
                continue
            typ, struct = self._parse_type_spec()
            ptr = self._parse_ptr_depth()
            name_token = self.expect("ident")
            name = str(name_token.value)
            if self.check("op", "("):
                unit.functions.append(
                    self._parse_function(typ, struct, ptr, name, name_token)
                )
            else:
                unit.globals.append(
                    self._parse_global(typ, struct, ptr, name, name_token)
                )
        return unit

    # ------------------------------------------------------------------
    # Type specifiers and declarators
    # ------------------------------------------------------------------

    def _parse_type_spec(self) -> Tuple[str, Optional[str]]:
        """Parse a base type: ``int``/``float``/``void`` or ``struct Tag``."""
        token = self.current
        if token.kind == "keyword" and token.value in ("int", "float", "void"):
            self.advance()
            return str(token.value), None
        if token.kind == "keyword" and token.value == "struct":
            self.advance()
            tag = str(self.expect("ident").value)
            return "struct", tag
        raise self.error(f"expected a type, found {token.value!r}")

    def _parse_ptr_depth(self) -> int:
        depth = 0
        while self.accept("op", "*"):
            depth += 1
        return depth

    # ------------------------------------------------------------------
    # Struct definitions
    # ------------------------------------------------------------------

    def _parse_struct_def(self) -> ast.StructDef:
        token = self.expect("keyword", "struct")
        name = str(self.expect("ident").value)
        self.expect("op", "{")
        fields: List[ast.FieldDecl] = []
        while not self.accept("op", "}"):
            if self.check("eof"):
                raise CompileError("unterminated struct", token.line, token.column)
            typ, struct = self._parse_type_spec()
            ptr = self._parse_ptr_depth()
            field_token = self.expect("ident")
            if self.check("op", "["):
                raise self.error("array fields are not supported")
            self.expect("op", ";")
            fields.append(
                ast.FieldDecl(
                    typ,
                    str(field_token.value),
                    ptr=ptr,
                    struct=struct,
                    line=field_token.line,
                    column=field_token.column,
                )
            )
        self.expect("op", ";")
        if not fields:
            raise CompileError(f"struct {name!r} has no fields", token.line, token.column)
        return ast.StructDef(name, fields, line=token.line, column=token.column)

    # ------------------------------------------------------------------
    # Globals
    # ------------------------------------------------------------------

    def _parse_global(
        self,
        typ: str,
        struct: Optional[str],
        ptr: int,
        name: str,
        name_token: Token,
    ) -> ast.GlobalDecl:
        if typ == "void" and ptr == 0:
            raise CompileError("void global", name_token.line, name_token.column)
        array_size: Optional[int] = None
        if self.accept("op", "["):
            if ptr:
                raise self.error("arrays of pointers are not supported")
            if typ == "struct":
                raise self.error("arrays of structs are not supported")
            size_token = self.expect("int")
            array_size = int(size_token.value)
            if array_size <= 0:
                raise CompileError("bad array size", size_token.line, size_token.column)
            self.expect("op", "]")
        init: Optional[List[Union[int, float]]] = None
        if self.accept("op", "="):
            if ptr or typ == "struct":
                raise self.error("only scalar and array globals can have initializers")
            init = self._parse_global_init(typ, array_size is not None)
        self.expect("op", ";")
        return ast.GlobalDecl(
            typ,
            name,
            array_size,
            init,
            name_token.line,
            ptr=ptr,
            struct=struct,
            column=name_token.column,
        )

    def _parse_global_init(self, typ: str, is_array: bool):
        def literal():
            negative = bool(self.accept("op", "-"))
            token = self.current
            if token.kind == "int":
                self.advance()
                value: Union[int, float] = int(token.value)
            elif token.kind == "float":
                self.advance()
                value = float(token.value)
            else:
                raise self.error("global initializers must be literals")
            if typ == "float":
                value = float(value)
            return -value if negative else value

        if is_array:
            self.expect("op", "{")
            values = [literal()]
            while self.accept("op", ","):
                values.append(literal())
            self.expect("op", "}")
            return values
        return [literal()]

    # ------------------------------------------------------------------
    # Functions
    # ------------------------------------------------------------------

    def _parse_function(
        self,
        ret_type: str,
        ret_struct: Optional[str],
        ret_ptr: int,
        name: str,
        name_token: Token,
    ) -> ast.FuncDef:
        if ret_struct is not None:
            raise CompileError(
                "functions cannot return structs", name_token.line, name_token.column
            )
        if ret_type == "void" and ret_ptr:
            raise CompileError(
                "void pointers are not supported", name_token.line, name_token.column
            )
        self.expect("op", "(")
        params: List[ast.Param] = []
        if not self.check("op", ")"):
            if self.check("keyword", "void") and self.peek().value == ")":
                self.advance()
            else:
                params.append(self._parse_param())
                while self.accept("op", ","):
                    params.append(self._parse_param())
        self.expect("op", ")")
        body = self._parse_block()
        return ast.FuncDef(
            ret_type,
            name,
            params,
            body,
            name_token.line,
            ret_ptr=ret_ptr,
            column=name_token.column,
        )

    def _parse_param(self) -> ast.Param:
        typ, struct = self._parse_type_spec()
        ptr = self._parse_ptr_depth()
        if typ == "void":
            raise self.error("void parameter")
        name_token = self.expect("ident")
        is_array = False
        if self.accept("op", "["):
            if ptr or typ == "struct":
                raise self.error("array parameters must have scalar elements")
            self.expect("op", "]")
            is_array = True
        return ast.Param(
            typ,
            str(name_token.value),
            is_array,
            ptr=ptr,
            struct=struct,
            line=name_token.line,
            column=name_token.column,
        )
