"""Name resolution for Armada levels.

Resolution produces a :class:`LevelContext` per level containing:

* the struct table (name → full :class:`StructType` with fields),
* the global-variable table,
* the method table (declared methods plus the implicit prelude externs),
* per-method local tables (parameters + all ``var`` declarations; Armada
  stack frames are flat datatypes with one field per local, §3.2.2, so
  local names must be unique within a method),
* the set of *uninterpreted* ghost functions referenced in specification
  positions (e.g. ``valid_soln`` in the paper's running example).

Resolution also rewrites placeholder struct types (parsed as bare names)
into their full definitions, everywhere a type can occur.
"""

from __future__ import annotations


from repro.errors import ResolveError
from repro.lang import asts as ast
from repro.lang import types as ty
from repro.lang.prelude import prelude_methods
from repro.record import Fresh, Record


class LocalInfo(Record):
    """A method-local variable (parameter or ``var`` declaration)."""

    name: str
    type: ty.Type
    ghost: bool = False
    is_param: bool = False
    address_taken: bool = False


class MethodContext(Record):
    decl: ast.MethodDecl
    locals: dict[str, LocalInfo] = Fresh(dict)


class LevelContext(Record):
    """Resolved symbol information for one level."""

    level: ast.LevelDecl
    structs: dict[str, ty.StructType] = Fresh(dict)
    globals: dict[str, ast.GlobalVarDecl] = Fresh(dict)
    methods: dict[str, ast.MethodDecl] = Fresh(dict)
    method_contexts: dict[str, MethodContext] = Fresh(dict)
    uninterpreted: set[str] = Fresh(set)
    #: Globals whose address is taken somewhere in the program (these are
    #: heap roots in the forest model, §3.2.4).
    addressed_globals: set[str] = Fresh(set)

    def local(self, method: str, name: str) -> LocalInfo | None:
        ctx = self.method_contexts.get(method)
        if ctx is None:
            return None
        return ctx.locals.get(name)


class Resolver:
    """Resolves one level. Use :func:`resolve_level`."""

    def __init__(self, level: ast.LevelDecl) -> None:
        self._level = level
        self._ctx = LevelContext(level)

    def resolve(self) -> LevelContext:
        self._collect_structs()
        self._collect_globals()
        self._collect_methods()
        for method in self._level.methods:
            self._resolve_method(method)
        return self._ctx

    # ------------------------------------------------------------------

    def _collect_structs(self) -> None:
        for decl in self._level.structs:
            if decl.name in self._ctx.structs:
                raise ResolveError(f"duplicate struct {decl.name}", decl.loc)
            self._ctx.structs[decl.name] = decl.struct_type
        # Resolve struct references inside struct fields (allowing nesting;
        # recursion through a pointer is fine, direct recursion is not).
        for name in list(self._ctx.structs):
            self._ctx.structs[name] = self._resolve_struct_body(
                self._ctx.structs[name], stack=(name,)
            )
        for decl in self._level.structs:
            decl.struct_type = self._ctx.structs[decl.name]

    def _resolve_struct_body(
        self, struct: ty.StructType, stack: tuple[str, ...]
    ) -> ty.StructType:
        fields = []
        for f in struct.fields:
            fields.append(
                ty.StructField(f.name, self._resolve_type(f.type, stack))
            )
        return ty.StructType(struct.name, tuple(fields))

    def _resolve_type(
        self, t: ty.Type, stack: tuple[str, ...] = ()
    ) -> ty.Type:
        """Replace bare struct names with full definitions, recursively."""
        if isinstance(t, ty.StructType):
            if t.name in stack and not t.fields:
                raise ResolveError(
                    f"struct {t.name} directly contains itself"
                )
            resolved = self._ctx.structs.get(t.name)
            if resolved is None:
                raise ResolveError(f"unknown struct {t.name}")
            if not resolved.fields or t.name in stack:
                return resolved
            return resolved
        if isinstance(t, ty.PtrType):
            # Pointers may refer to not-yet-resolved structs; stop cycles.
            if isinstance(t.element, ty.StructType):
                inner = self._ctx.structs.get(t.element.name)
                if inner is None:
                    raise ResolveError(f"unknown struct {t.element.name}")
                return ty.PtrType(inner)
            return ty.PtrType(self._resolve_type(t.element, stack))
        if isinstance(t, ty.ArrayType):
            return ty.ArrayType(self._resolve_type(t.element, stack), t.size)
        if isinstance(t, ty.SeqType):
            return ty.SeqType(self._resolve_type(t.element, stack))
        if isinstance(t, ty.SetType):
            return ty.SetType(self._resolve_type(t.element, stack))
        if isinstance(t, ty.MapType):
            return ty.MapType(
                self._resolve_type(t.key, stack),
                self._resolve_type(t.value, stack),
            )
        if isinstance(t, ty.OptionType):
            return ty.OptionType(self._resolve_type(t.element, stack))
        return t

    def _collect_globals(self) -> None:
        for g in self._level.globals:
            if g.name in self._ctx.globals:
                raise ResolveError(f"duplicate global {g.name}", g.loc)
            g.var_type = self._resolve_type(g.var_type)
            self._ctx.globals[g.name] = g

    def _collect_methods(self) -> None:
        for m in prelude_methods():
            self._ctx.methods[m.name] = m
        for m in self._level.methods:
            if m.name in self._level_method_names_before(m):
                raise ResolveError(f"duplicate method {m.name}", m.loc)
            m.return_type = self._resolve_type(m.return_type)
            for p in m.params:
                p.type = self._resolve_type(p.type)
            self._ctx.methods[m.name] = m

    def _level_method_names_before(self, m: ast.MethodDecl) -> set[str]:
        names = set()
        for other in self._level.methods:
            if other is m:
                break
            names.add(other.name)
        return names

    # ------------------------------------------------------------------

    def _resolve_method(self, method: ast.MethodDecl) -> None:
        mctx = MethodContext(method)
        self._ctx.method_contexts[method.name] = mctx
        for p in method.params:
            if p.name in mctx.locals:
                raise ResolveError(
                    f"duplicate parameter {p.name} in {method.name}", p.loc
                )
            mctx.locals[p.name] = LocalInfo(
                p.name, p.type, ghost=False, is_param=True
            )
        if method.body is None:
            return
        self._collect_locals(method, mctx, method.body)
        self._check_stmt_names(method, mctx, method.body)

    def _collect_locals(
        self, method: ast.MethodDecl, mctx: MethodContext, block: ast.Block
    ) -> None:
        for stmt in ast.walk_stmts(block):
            if isinstance(stmt, ast.VarDeclStmt):
                stmt.var_type = self._resolve_type(stmt.var_type)
                if isinstance(stmt.init, ast.MallocRhs):
                    stmt.init.alloc_type = self._resolve_type(
                        stmt.init.alloc_type
                    )
                if isinstance(stmt.init, ast.CallocRhs):
                    stmt.init.alloc_type = self._resolve_type(
                        stmt.init.alloc_type
                    )
                if stmt.name in mctx.locals:
                    raise ResolveError(
                        f"duplicate local {stmt.name} in {method.name} "
                        "(Armada stack frames are flat; rename the variable)",
                        stmt.loc,
                    )
                mctx.locals[stmt.name] = LocalInfo(
                    stmt.name, stmt.var_type, ghost=stmt.ghost
                )
            elif isinstance(stmt, ast.AssignStmt):
                for rhs in stmt.rhss:
                    if isinstance(rhs, (ast.MallocRhs, ast.CallocRhs)):
                        rhs.alloc_type = self._resolve_type(rhs.alloc_type)

    def _check_stmt_names(
        self, method: ast.MethodDecl, mctx: MethodContext, stmt: ast.Stmt
    ) -> None:
        for node in ast.walk_stmts(stmt):
            if isinstance(node, ast.AssignStmt):
                node.rhss = [
                    self._demote_ghost_call(rhs) for rhs in node.rhss
                ]
            if isinstance(node, ast.VarDeclStmt) and node.init is not None:
                node.init = self._demote_ghost_call(node.init)
            for expr in ast.stmt_exprs(node):
                self._check_expr_names(method, mctx, expr, spec=False)
            if isinstance(node, ast.AssignStmt):
                for rhs in node.rhss:
                    if isinstance(rhs, (ast.CallRhs, ast.CreateThreadRhs)):
                        if rhs.method not in self._ctx.methods:
                            raise ResolveError(
                                f"call to unknown method {rhs.method}",
                                rhs.loc,
                            )

    #: Pure functions evaluable in expressions (not method calls).
    GHOST_BUILTINS = frozenset(
        {"len", "abs", "Some", "first", "last", "drop", "take"}
    )

    def _demote_ghost_call(self, rhs: ast.Rhs) -> ast.Rhs:
        """A CallRhs to a ghost builtin (e.g. ``q := drop(q, 1)``) is an
        expression, not a method call; rewrite it to an ExprRhs."""
        if (
            isinstance(rhs, ast.CallRhs)
            and rhs.method in self.GHOST_BUILTINS
        ):
            call = ast.Call(rhs.method, rhs.args, loc=rhs.loc)
            return ast.ExprRhs(call, loc=rhs.loc)
        return rhs

    def _check_expr_names(
        self,
        method: ast.MethodDecl,
        mctx: MethodContext,
        expr: ast.Expr,
        spec: bool,
        bound: frozenset[str] = frozenset(),
    ) -> None:
        if isinstance(expr, ast.Var):
            if (
                expr.name not in bound
                and expr.name not in mctx.locals
                and expr.name not in self._ctx.globals
                and expr.name not in ("None",)
            ):
                raise ResolveError(
                    f"unknown variable {expr.name} in {method.name}", expr.loc
                )
            return
        if isinstance(expr, ast.MetaVar):
            if expr.name not in ("$me", "$sb_empty", "$log", "$state"):
                raise ResolveError(f"unknown meta variable {expr.name}",
                                   expr.loc)
            return
        if isinstance(expr, ast.Call):
            if expr.func not in self._ctx.methods and expr.func not in (
                "len", "Some", "None", "abs",
                "first", "last", "drop", "take",
            ):
                # Uninterpreted ghost function (spec-only).
                self._ctx.uninterpreted.add(expr.func)
            for arg in expr.args:
                self._check_expr_names(method, mctx, arg, spec, bound)
            return
        if isinstance(expr, ast.AddressOf):
            target = expr.operand
            if isinstance(target, ast.Var):
                if target.name in self._ctx.globals:
                    self._ctx.addressed_globals.add(target.name)
                elif target.name in mctx.locals:
                    mctx.locals[target.name].address_taken = True
        if isinstance(expr, ast.Quantifier):
            self._check_expr_names(
                method, mctx, expr.body, spec, bound | {expr.boundvar}
            )
            return
        for child in ast.child_exprs(expr):
            self._check_expr_names(method, mctx, child, spec, bound)


def resolve_level(level: ast.LevelDecl) -> LevelContext:
    """Resolve *level*, returning its :class:`LevelContext`."""
    return Resolver(level).resolve()
