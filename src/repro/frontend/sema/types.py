"""Semantic types for the mini-C frontend.

The AST carries declarators as strings plus pointer depth; sema
resolves them into structured types.  Primitives compare by name,
pointers and arrays structurally, structs nominally (by tag) — two
``struct Node`` mentions always mean the same definition because struct
definitions live in one global namespace.
"""

from __future__ import annotations

from typing import List, Optional, Tuple


class Type:
    """Base class for resolved mini-C types."""

    __slots__ = ()


class Prim(Type):
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __eq__(self, other):
        return isinstance(other, Prim) and other.name == self.name

    def __hash__(self):
        return hash(("prim", self.name))

    def __str__(self):
        return self.name

    __repr__ = __str__


INT = Prim("int")
FLOAT = Prim("float")
VOID = Prim("void")
#: Poison type produced after a reported error; assignable to anything
#: so one mistake does not cascade into a wall of diagnostics.
ERROR = Prim("<error>")


class Pointer(Type):
    __slots__ = ("pointee",)

    def __init__(self, pointee: Type):
        self.pointee = pointee

    def __eq__(self, other):
        return isinstance(other, Pointer) and other.pointee == self.pointee

    def __hash__(self):
        return hash(("ptr", self.pointee))

    def __str__(self):
        return f"{self.pointee}*"

    __repr__ = __str__


class Array(Type):
    """An array object; ``size`` is None for decayed array parameters."""

    __slots__ = ("elem", "size")

    def __init__(self, elem: Type, size: Optional[int]):
        self.elem = elem
        self.size = size

    def __eq__(self, other):
        return isinstance(other, Array) and other.elem == self.elem

    def __hash__(self):
        return hash(("array", self.elem))

    def __str__(self):
        return f"{self.elem}[{self.size if self.size is not None else ''}]"

    __repr__ = __str__


class Struct(Type):
    """A struct definition: ordered scalar/pointer fields, one word each."""

    __slots__ = ("name", "fields")

    def __init__(self, name: str, fields: Optional[List[Tuple[str, Type]]] = None):
        self.name = name
        self.fields = fields if fields is not None else []

    def field_type(self, name: str) -> Optional[Type]:
        for field_name, typ in self.fields:
            if field_name == name:
                return typ
        return None

    @property
    def words(self) -> int:
        return len(self.fields)

    def __eq__(self, other):
        return isinstance(other, Struct) and other.name == self.name

    def __hash__(self):
        return hash(("struct", self.name))

    def __str__(self):
        return f"struct {self.name}"

    __repr__ = __str__


def is_arith(t: Type) -> bool:
    return t == INT or t == FLOAT or t == ERROR


def is_scalar(t: Type) -> bool:
    """A one-word value: int, float, or pointer (usable in conditions)."""
    return is_arith(t) or isinstance(t, Pointer)


def decay(t: Type) -> Type:
    """Array-to-pointer decay in value contexts."""
    if isinstance(t, Array):
        return Pointer(t.elem)
    return t


def words(t: Type) -> int:
    if isinstance(t, Array):
        return (t.size or 1) * words(t.elem)
    if isinstance(t, Struct):
        return t.words
    return 1
