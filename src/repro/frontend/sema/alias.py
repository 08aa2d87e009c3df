"""Flow-insensitive Steensgaard-style points-to analysis.

Classic unification: every abstract node has at most one points-to
cell; assignments unify the cells of both sides, so the analysis runs
in near-linear time.  Struct objects are field-collapsed (all pointer
fields of an object share one cell) and arrays are element-collapsed —
both standard Steensgaard simplifications.

Outputs:

- ``exposed[func]`` — locals whose address is taken (``&x``).  Codegen
  pins these into memory-resident slots, which keeps the register
  allocator's frame-reference analysis sound, and everything *not* in
  the set becomes a ``frame_private`` fact the IR-level alias oracle
  (:mod:`repro.staticanalysis.alias`) can rely on.
- ``points_to[func][var]`` — the abstract locations a pointer variable
  may target, under a closed-world assumption (all callers are in this
  translation unit).  Locations are named ``func::var`` for locals and
  ``var`` for globals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.frontend import ast


@dataclass
class AliasInfo:
    exposed: Dict[str, FrozenSet[str]] = field(default_factory=dict)
    points_to: Dict[str, Dict[str, Tuple[str, ...]]] = field(default_factory=dict)


class _Steensgaard:
    """Union-find over abstract nodes with unifying points-to cells."""

    def __init__(self):
        self.parent: Dict = {}
        self.cell_of: Dict = {}  # root -> node it points to
        self.locs: Dict = {}  # root -> concrete location names
        self._fresh = 0

    def node(self, key) -> object:
        if key not in self.parent:
            self.parent[key] = key
        return self.find(key)

    def fresh(self) -> object:
        self._fresh += 1
        key = ("tmp", self._fresh)
        self.parent[key] = key
        return key

    def find(self, key):
        root = key
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[key] != root:
            self.parent[key], key = root, self.parent[key]
        return root

    def add_loc(self, key, name: str) -> None:
        root = self.node(key)
        self.locs.setdefault(root, set()).add(name)

    def cell(self, key):
        """The points-to cell of *key*, created on demand."""
        root = self.find(self.node(key))
        target = self.cell_of.get(root)
        if target is None:
            target = self.fresh()
            self.cell_of[root] = target
        return self.find(target)

    def unify(self, a, b) -> None:
        work = [(a, b)]
        while work:
            x, y = work.pop()
            rx, ry = self.find(self.node(x)), self.find(self.node(y))
            if rx == ry:
                continue
            tx = self.cell_of.pop(rx, None)
            ty = self.cell_of.pop(ry, None)
            self.parent[ry] = rx
            merged = self.locs.pop(ry, None)
            if merged:
                self.locs.setdefault(rx, set()).update(merged)
            if tx is not None and ty is not None:
                self.cell_of[rx] = tx
                work.append((tx, ty))
            elif tx is not None or ty is not None:
                self.cell_of[rx] = tx if tx is not None else ty

    def locs_of(self, key) -> FrozenSet[str]:
        root = self.find(self.node(key))
        return frozenset(self.locs.get(root, ()))


class _Collector:
    def __init__(self, unit: ast.TranslationUnit):
        self.unit = unit
        self.uf = _Steensgaard()
        self.exposed: Dict[str, Set[str]] = {}
        self.local_names: Dict[str, Set[str]] = {}
        for glob in unit.globals:
            self.uf.add_loc(("v", "", glob.name), glob.name)

    # Node naming -------------------------------------------------------

    def var(self, func: str, name: str):
        if name in self.local_names.get(func, ()):
            key = ("v", func, name)
            self.uf.add_loc(key, f"{func}::{name}")
            return key
        key = ("v", "", name)
        self.uf.add_loc(key, name)
        return key

    # Constraint generation --------------------------------------------

    def run(self) -> AliasInfo:
        for func in self.unit.functions:
            names = {p.name for p in func.params}
            self._collect_decls(func.body, names)
            self.local_names[func.name] = names
            self.exposed.setdefault(func.name, set())
        for func in self.unit.functions:
            self._stmt(func.body, func)
        info = AliasInfo()
        for func in self.unit.functions:
            info.exposed[func.name] = frozenset(self.exposed[func.name])
            pts: Dict[str, Tuple[str, ...]] = {}
            for name in sorted(self.local_names[func.name]):
                key = ("v", func.name, name)
                if self.uf.find(self.uf.node(key)) in self.uf.cell_of:
                    targets = self.uf.locs_of(self.uf.cell(key))
                    if targets:
                        pts[name] = tuple(sorted(targets))
            info.points_to[func.name] = pts
        return info

    def _collect_decls(self, stmt: ast.Stmt, names: Set[str]) -> None:
        if isinstance(stmt, ast.Block):
            for child in stmt.stmts:
                self._collect_decls(child, names)
        elif isinstance(stmt, ast.DeclStmt):
            names.add(stmt.name)
        elif isinstance(stmt, ast.IfStmt):
            self._collect_decls(stmt.then_body, names)
            if stmt.else_body is not None:
                self._collect_decls(stmt.else_body, names)
        elif isinstance(stmt, (ast.WhileStmt, ast.DoWhileStmt, ast.ForStmt)):
            self._collect_decls(stmt.body, names)
        elif isinstance(stmt, ast.SwitchStmt):
            for case in stmt.cases:
                for child in case.body:
                    self._collect_decls(child, names)

    def _stmt(self, stmt: ast.Stmt, func: ast.FuncDef) -> None:
        if isinstance(stmt, ast.Block):
            for child in stmt.stmts:
                self._stmt(child, func)
        elif isinstance(stmt, ast.DeclStmt):
            if stmt.init is not None:
                value = self._value(stmt.init, func)
                if value is not None:
                    self.uf.unify(
                        self.uf.cell(self.var(func.name, stmt.name)),
                        self.uf.cell(value),
                    )
        elif isinstance(stmt, ast.ExprStmt):
            self._value(stmt.expr, func)
        elif isinstance(stmt, ast.IfStmt):
            self._value(stmt.cond, func)
            self._stmt(stmt.then_body, func)
            if stmt.else_body is not None:
                self._stmt(stmt.else_body, func)
        elif isinstance(stmt, ast.WhileStmt):
            self._value(stmt.cond, func)
            self._stmt(stmt.body, func)
        elif isinstance(stmt, ast.DoWhileStmt):
            self._stmt(stmt.body, func)
            self._value(stmt.cond, func)
        elif isinstance(stmt, ast.ForStmt):
            for expr in (stmt.init, stmt.cond, stmt.step):
                if expr is not None:
                    self._value(expr, func)
            self._stmt(stmt.body, func)
        elif isinstance(stmt, ast.SwitchStmt):
            self._value(stmt.selector, func)
            for case in stmt.cases:
                for child in case.body:
                    self._stmt(child, func)
        elif isinstance(stmt, ast.ReturnStmt):
            if stmt.value is not None:
                value = self._value(stmt.value, func)
                if value is not None:
                    ret = self.uf.node(("ret", func.name))
                    self.uf.unify(self.uf.cell(ret), self.uf.cell(value))

    def _object_of(self, base: Optional[ast.Expr], func: ast.FuncDef, arrow: bool):
        """The abstract node of the struct object a member access hits."""
        if not arrow and isinstance(base, ast.Var):
            return self.var(func.name, base.name)
        if not arrow and isinstance(base, ast.Deref):
            pointer = self._value(base.operand, func)
            return self.uf.cell(pointer) if pointer is not None else None
        if arrow and base is not None:
            pointer = self._value(base, func)
            return self.uf.cell(pointer) if pointer is not None else None
        return None

    def _value(self, expr: Optional[ast.Expr], func: ast.FuncDef):
        """Process side constraints and return the value's abstract node
        (None when the value cannot carry a pointer)."""
        if expr is None:
            return None
        name = func.name
        if isinstance(expr, ast.Var):
            return self.var(name, expr.name)
        if isinstance(expr, ast.AddrOf):
            operand = expr.operand
            temp = self.uf.fresh()
            if isinstance(operand, ast.Var):
                if operand.name in self.local_names.get(name, ()):
                    self.exposed[name].add(operand.name)
                self.uf.unify(self.uf.cell(temp), self.var(name, operand.name))
            elif isinstance(operand, ast.Index):
                self._value(operand.index, func)
                self.uf.unify(self.uf.cell(temp), self.var(name, operand.base))
            elif isinstance(operand, ast.Member):
                obj = self._object_of(operand.base, func, operand.arrow)
                if obj is not None:
                    self.uf.unify(self.uf.cell(temp), obj)
            elif isinstance(operand, ast.Deref):
                return self._value(operand.operand, func)
            return temp
        if isinstance(expr, ast.Deref):
            pointer = self._value(expr.operand, func)
            if pointer is None:
                return None
            return self.uf.cell(pointer)
        if isinstance(expr, ast.Member):
            obj = self._object_of(expr.base, func, expr.arrow)
            if obj is None:
                return None
            temp = self.uf.fresh()
            self.uf.unify(self.uf.cell(temp), self.uf.cell(obj))
            return temp
        if isinstance(expr, ast.Index):
            self._value(expr.index, func)
            # Elements are scalars (no pointer arrays), so no value node.
            self.var(name, expr.base)
            return None
        if isinstance(expr, ast.Unary):
            self._value(expr.operand, func)
            return None
        if isinstance(expr, ast.Binary):
            left = self._value(expr.left, func)
            right = self._value(expr.right, func)
            if expr.op in ("+", "-"):
                return left if left is not None else right
            return None
        if isinstance(expr, ast.CallExpr):
            self._call(expr, func)
            return self.uf.node(("ret", expr.name))
        if isinstance(expr, ast.AssignExpr):
            return self._assign(expr, func)
        if isinstance(expr, ast.IncDec):
            return self._value(expr.target, func)
        return None

    def _call(self, expr: ast.CallExpr, func: ast.FuncDef) -> None:
        callee = next(
            (f for f in self.unit.functions if f.name == expr.name), None
        )
        for i, arg in enumerate(expr.args):
            value = self._value(arg, func)
            if value is None or callee is None or i >= len(callee.params):
                continue
            param = self.uf.node(("v", callee.name, callee.params[i].name))
            self.uf.unify(self.uf.cell(param), self.uf.cell(value))

    def _assign(self, expr: ast.AssignExpr, func: ast.FuncDef):
        value = self._value(expr.value, func)
        target = expr.target
        if isinstance(target, ast.Var):
            if value is not None:
                self.uf.unify(
                    self.uf.cell(self.var(func.name, target.name)),
                    self.uf.cell(value),
                )
            return self.var(func.name, target.name)
        if isinstance(target, ast.Deref):
            pointer = self._value(target.operand, func)
            if pointer is not None and value is not None:
                obj = self.uf.cell(pointer)
                self.uf.unify(self.uf.cell(obj), self.uf.cell(value))
            return value
        if isinstance(target, ast.Member):
            obj = self._object_of(target.base, func, target.arrow)
            if obj is not None and value is not None:
                self.uf.unify(self.uf.cell(obj), self.uf.cell(value))
            return value
        if isinstance(target, ast.Index):
            self._value(target.index, func)
            return value
        return value


def analyze_alias(unit: ast.TranslationUnit) -> AliasInfo:
    """Run Steensgaard points-to analysis over *unit*."""
    return _Collector(unit).run()
