"""Type checker for Armada levels.

Annotates every expression node with its type (the ``type`` attribute)
and rejects ill-typed programs.  Checking is mildly bidirectional so
that integer literals and the nondeterministic ``*`` adopt the fixed
width expected by their context, matching how the Armada front end
infers types before state-machine translation.
"""

from __future__ import annotations

from repro.errors import TypeError_
from repro.lang import asts as ast
from repro.lang import types as ty
from repro.lang.resolver import LevelContext, MethodContext

#: Thread ids have this type (`create_thread` results, `$me`).
THREAD_ID_TYPE = ty.UINT64


class TypeChecker:
    """Type-checks one resolved level."""

    def __init__(self, ctx: LevelContext) -> None:
        self._ctx = ctx

    def check(self) -> None:
        for g in self._ctx.level.globals:
            if g.init is not None:
                self._check_expr(g.init, None, g.var_type, two_state=False)
        for method in self._ctx.level.methods:
            self._check_method(method)

    # ------------------------------------------------------------------

    def _check_method(self, method: ast.MethodDecl) -> None:
        mctx = self._ctx.method_contexts[method.name]
        for expr in method.spec.requires + method.spec.modifies + \
                method.spec.reads:
            self._check_expr(expr, mctx, None, two_state=False)
        for expr in method.spec.ensures:
            self._check_expr(expr, mctx, ty.BOOL, two_state=True)
        if method.body is not None:
            self._check_block(method, mctx, method.body)

    def _check_block(
        self, method: ast.MethodDecl, mctx: MethodContext, block: ast.Block
    ) -> None:
        for stmt in block.stmts:
            self._check_stmt(method, mctx, stmt)

    def _check_stmt(
        self, method: ast.MethodDecl, mctx: MethodContext, stmt: ast.Stmt
    ) -> None:
        if isinstance(stmt, ast.Block):
            self._check_block(method, mctx, stmt)
        elif isinstance(stmt, ast.VarDeclStmt):
            if stmt.init is not None:
                self._check_rhs(mctx, stmt.init, stmt.var_type)
        elif isinstance(stmt, ast.AssignStmt):
            self._check_assign(mctx, stmt)
        elif isinstance(stmt, ast.IfStmt):
            self._check_guard(mctx, stmt.cond)
            self._check_block(method, mctx, stmt.then)
            if stmt.els is not None:
                self._check_block(method, mctx, stmt.els)
        elif isinstance(stmt, ast.WhileStmt):
            self._check_guard(mctx, stmt.cond)
            for inv in stmt.invariants:
                self._check_expr(inv, mctx, ty.BOOL, two_state=False)
            self._check_block(method, mctx, stmt.body)
        elif isinstance(stmt, ast.ReturnStmt):
            if stmt.value is not None:
                if isinstance(method.return_type, ty.VoidType):
                    raise TypeError_(
                        f"{method.name} returns void but return has a value",
                        stmt.loc,
                    )
                self._check_expr(stmt.value, mctx, method.return_type,
                                 two_state=False)
            elif not isinstance(method.return_type, ty.VoidType):
                raise TypeError_(
                    f"{method.name} must return a {method.return_type}",
                    stmt.loc,
                )
        elif isinstance(stmt, (ast.AssertStmt, ast.AssumeStmt)):
            self._check_expr(stmt.cond, mctx, ty.BOOL, two_state=False)
        elif isinstance(stmt, ast.SomehowStmt):
            for e in stmt.spec.requires:
                self._check_expr(e, mctx, ty.BOOL, two_state=False)
            for e in stmt.spec.modifies:
                self._check_lvalue(mctx, e)
            for e in stmt.spec.ensures:
                self._check_expr(e, mctx, ty.BOOL, two_state=True)
        elif isinstance(stmt, ast.DeallocStmt):
            t = self._check_expr(stmt.ptr, mctx, None, two_state=False)
            if not t.is_pointer():
                raise TypeError_("dealloc requires a pointer", stmt.loc)
        elif isinstance(stmt, ast.JoinStmt):
            self._check_expr(stmt.thread, mctx, THREAD_ID_TYPE,
                             two_state=False)
        elif isinstance(stmt, ast.LabelStmt):
            self._check_stmt(method, mctx, stmt.stmt)
        elif isinstance(stmt, (ast.ExplicitYieldBlock, ast.AtomicBlock)):
            self._check_block(method, mctx, stmt.body)
        elif isinstance(
            stmt, (ast.BreakStmt, ast.ContinueStmt, ast.YieldStmt)
        ):
            pass
        else:
            raise TypeError_(f"unhandled statement {type(stmt).__name__}",
                             stmt.loc)

    def _check_guard(self, mctx: MethodContext, cond: ast.Expr) -> None:
        if isinstance(cond, ast.Nondet):
            cond.type = ty.BOOL
            return
        self._check_expr(cond, mctx, ty.BOOL, two_state=False)

    def _check_assign(self, mctx: MethodContext, stmt: ast.AssignStmt) -> None:
        lhs_types = [self._check_lvalue(mctx, lhs) for lhs in stmt.lhss]
        if not stmt.lhss:
            # Bare call statement.
            if len(stmt.rhss) != 1 or not isinstance(stmt.rhss[0], ast.CallRhs):
                raise TypeError_("statement has no effect", stmt.loc)
            self._check_rhs(mctx, stmt.rhss[0], None)
            return
        if len(stmt.lhss) != len(stmt.rhss):
            raise TypeError_(
                f"{len(stmt.lhss)} left-hand sides but {len(stmt.rhss)} "
                "right-hand sides",
                stmt.loc,
            )
        for lhs_type, rhs in zip(lhs_types, stmt.rhss):
            self._check_rhs(mctx, rhs, lhs_type)

    def _check_rhs(
        self, mctx: MethodContext, rhs: ast.Rhs, expected: ty.Type | None
    ) -> ty.Type:
        if isinstance(rhs, ast.ExprRhs):
            return self._check_expr(rhs.expr, mctx, expected, two_state=False)
        if isinstance(rhs, ast.CallRhs):
            method = self._ctx.methods.get(rhs.method)
            if method is None:
                raise TypeError_(f"call to unknown method {rhs.method}",
                                 rhs.loc)
            self._check_call_args(mctx, rhs.method, method, rhs.args, rhs)
            result = method.return_type
            if expected is not None and not ty.assignable(expected, result):
                raise TypeError_(
                    f"method {rhs.method} returns {result}, expected "
                    f"{expected}",
                    rhs.loc,
                )
            return result
        if isinstance(rhs, ast.MallocRhs):
            result = ty.PtrType(rhs.alloc_type)
            self._require_assignable(expected, result, rhs.loc)
            return result
        if isinstance(rhs, ast.CallocRhs):
            self._check_expr(rhs.count, mctx, None, two_state=False)
            result = ty.PtrType(rhs.alloc_type)
            self._require_assignable(expected, result, rhs.loc)
            return result
        if isinstance(rhs, ast.CreateThreadRhs):
            method = self._ctx.methods.get(rhs.method)
            if method is None:
                raise TypeError_(
                    f"create_thread of unknown method {rhs.method}", rhs.loc
                )
            self._check_call_args(mctx, rhs.method, method, rhs.args, rhs)
            self._require_assignable(expected, THREAD_ID_TYPE, rhs.loc)
            return THREAD_ID_TYPE
        raise TypeError_(f"unhandled RHS {type(rhs).__name__}", rhs.loc)

    def _check_call_args(
        self,
        mctx: MethodContext,
        name: str,
        method: ast.MethodDecl,
        args: list[ast.Expr],
        node: ast.Rhs,
    ) -> None:
        if len(args) != len(method.params):
            raise TypeError_(
                f"{name} expects {len(method.params)} arguments, got "
                f"{len(args)}",
                node.loc,
            )
        for arg, param in zip(args, method.params):
            self._check_expr(arg, mctx, param.type, two_state=False)

    def _require_assignable(
        self, expected: ty.Type | None, actual: ty.Type, loc
    ) -> None:
        if expected is not None and not ty.assignable(expected, actual):
            raise TypeError_(f"cannot assign {actual} to {expected}", loc)

    # ------------------------------------------------------------------
    # lvalues

    def _check_lvalue(self, mctx: MethodContext, expr: ast.Expr) -> ty.Type:
        if isinstance(expr, (ast.Var, ast.Deref, ast.Index, ast.FieldAccess)):
            return self._check_expr(expr, mctx, None, two_state=False)
        raise TypeError_(
            f"{type(expr).__name__} is not an assignable location", expr.loc
        )

    # ------------------------------------------------------------------
    # expressions

    def _check_expr(
        self,
        expr: ast.Expr,
        mctx: MethodContext | None,
        expected: ty.Type | None,
        two_state: bool,
        bound: dict[str, ty.Type] | None = None,
    ) -> ty.Type:
        result = self._infer(expr, mctx, expected, two_state, bound or {})
        expr.type = result
        if expected is not None and not ty.assignable(expected, result):
            raise TypeError_(
                f"expected {expected}, found {result}", expr.loc
            )
        return result

    def _infer(
        self,
        expr: ast.Expr,
        mctx: MethodContext | None,
        expected: ty.Type | None,
        two_state: bool,
        bound: dict[str, ty.Type],
    ) -> ty.Type:
        check = lambda e, exp=None: self._check_expr(  # noqa: E731
            e, mctx, exp, two_state, bound
        )

        if isinstance(expr, ast.IntLit):
            if isinstance(expected, ty.IntType):
                if not expected.contains(expr.value):
                    raise TypeError_(
                        f"literal {expr.value} out of range for {expected}",
                        expr.loc,
                    )
                return expected
            return expected if isinstance(expected, ty.MathIntType) \
                else ty.MATHINT
        if isinstance(expr, ast.BoolLit):
            return ty.BOOL
        if isinstance(expr, ast.NullLit):
            return expected if isinstance(expected, ty.PtrType) \
                else ty.PtrType(ty.VOID)
        if isinstance(expr, ast.Nondet):
            if expected is None:
                raise TypeError_(
                    "cannot infer the type of a nondeterministic '*' here",
                    expr.loc,
                )
            return expected
        if isinstance(expr, ast.Var):
            return self._var_type(expr, mctx, expected, bound)
        if isinstance(expr, ast.MetaVar):
            if expr.name == "$me":
                return THREAD_ID_TYPE
            if expr.name == "$sb_empty":
                return ty.BOOL
            return ty.MATHINT
        if isinstance(expr, ast.Unary):
            return self._infer_unary(expr, check, expected)
        if isinstance(expr, ast.Binary):
            return self._infer_binary(expr, check, expected)
        if isinstance(expr, ast.Conditional):
            check(expr.cond, ty.BOOL)
            then_t = check(expr.then, expected)
            els_t = check(expr.els, then_t if expected is None else expected)
            if expected is None and then_t != els_t:
                joined = ty.join_integer(then_t, els_t)
                if joined is None:
                    raise TypeError_(
                        f"branches have different types {then_t} / {els_t}",
                        expr.loc,
                    )
                return joined
            return then_t
        if isinstance(expr, ast.AddressOf):
            inner = check(expr.operand)
            if not isinstance(
                expr.operand, (ast.Var, ast.Deref, ast.Index, ast.FieldAccess)
            ):
                raise TypeError_("cannot take the address of this expression",
                                 expr.loc)
            return ty.PtrType(inner)
        if isinstance(expr, ast.Deref):
            inner = check(expr.operand)
            if not isinstance(inner, ty.PtrType):
                raise TypeError_(f"cannot dereference {inner}", expr.loc)
            return inner.element
        if isinstance(expr, ast.FieldAccess):
            base = check(expr.base)
            if isinstance(base, ty.StructType):
                field_type = base.field_type(expr.fieldname)
                if field_type is None:
                    raise TypeError_(
                        f"{base} has no field {expr.fieldname}", expr.loc
                    )
                return field_type
            raise TypeError_(f"{base} has no fields", expr.loc)
        if isinstance(expr, ast.Index):
            return self._infer_index(expr, check)
        if isinstance(expr, ast.Old):
            if not two_state:
                raise TypeError_(
                    "old() is only allowed in two-state predicates "
                    "(ensures clauses)",
                    expr.loc,
                )
            return check(expr.operand, expected)
        if isinstance(expr, (ast.Allocated, ast.AllocatedArray)):
            inner = check(expr.operand)
            if not inner.is_pointer():
                raise TypeError_("allocated() requires a pointer", expr.loc)
            return ty.BOOL
        if isinstance(expr, ast.Call):
            return self._infer_call(expr, mctx, check, expected)
        if isinstance(expr, ast.SeqLit):
            hint = expected.element if isinstance(expected, ty.SeqType) \
                else None
            if expr.elements:
                elem = check(expr.elements[0], hint)
                for e in expr.elements[1:]:
                    check(e, elem)
            else:
                elem = hint if hint is not None else ty.MATHINT
            return ty.SeqType(elem)
        if isinstance(expr, ast.SetLit):
            hint = expected.element if isinstance(expected, ty.SetType) \
                else None
            if expr.elements:
                elem = check(expr.elements[0], hint)
                for e in expr.elements[1:]:
                    check(e, elem)
            else:
                elem = hint if hint is not None else ty.MATHINT
            return ty.SetType(elem)
        if isinstance(expr, ast.Quantifier):
            inner_bound = dict(bound)
            inner_bound[expr.boundvar] = expr.boundtype
            self._check_expr(expr.body, mctx, ty.BOOL, two_state, inner_bound)
            return ty.BOOL
        raise TypeError_(f"unhandled expression {type(expr).__name__}",
                         expr.loc)

    def _var_type(
        self,
        expr: ast.Var,
        mctx: MethodContext | None,
        expected: ty.Type | None,
        bound: dict[str, ty.Type],
    ) -> ty.Type:
        if expr.name in bound:
            return bound[expr.name]
        if expr.name == "None":
            if isinstance(expected, ty.OptionType):
                return expected
            return ty.OptionType(ty.VOID)
        if mctx is not None:
            info = mctx.locals.get(expr.name)
            if info is not None:
                return info.type
        g = self._ctx.globals.get(expr.name)
        if g is not None:
            return g.var_type
        raise TypeError_(f"unknown variable {expr.name}", expr.loc)

    def _infer_unary(self, expr: ast.Unary, check, expected) -> ty.Type:
        if expr.op == "!":
            check(expr.operand, ty.BOOL)
            return ty.BOOL
        if expr.op == "-":
            inner = check(expr.operand,
                          expected if isinstance(expected, ty.IntType)
                          else None)
            if not inner.is_integer():
                raise TypeError_(f"cannot negate {inner}", expr.loc)
            return inner
        if expr.op == "~":
            inner = check(expr.operand,
                          expected if isinstance(expected, ty.IntType)
                          else None)
            if not isinstance(inner, ty.IntType):
                raise TypeError_("~ requires a fixed-width integer", expr.loc)
            return inner
        raise TypeError_(f"unknown unary operator {expr.op}", expr.loc)

    def _infer_binary(
        self, expr: ast.Binary, check, expected: ty.Type | None = None
    ) -> ty.Type:
        op = expr.op
        # Literal-heavy arithmetic adopts the width the context expects
        # (e.g. `x := 2 + 3 * 4` with x: uint32).
        width_hint = expected if isinstance(expected, ty.IntType) else None
        if op in ("&&", "||", "==>", "<=="):
            check(expr.left, ty.BOOL)
            check(expr.right, ty.BOOL)
            return ty.BOOL
        if op in ("==", "!="):
            left = check(expr.left)
            right = check(
                expr.right,
                left if isinstance(expr.right,
                                   (ast.IntLit, ast.Nondet, ast.NullLit,
                                    ast.Var))
                and not isinstance(left, ty.MathIntType) else None,
            )
            if not self._comparable(left, right):
                raise TypeError_(
                    f"cannot compare {left} with {right}", expr.loc
                )
            return ty.BOOL
        if op == "in":
            right = check(expr.right)
            if isinstance(right, ty.SeqType):
                check(expr.left, right.element)
            elif isinstance(right, ty.SetType):
                check(expr.left, right.element)
            elif isinstance(right, ty.MapType):
                check(expr.left, right.key)
            else:
                raise TypeError_(f"'in' requires a collection, got {right}",
                                 expr.loc)
            return ty.BOOL
        if op in ("<", "<=", ">", ">="):
            left = check(expr.left)
            check(
                expr.right,
                left if not isinstance(left, ty.MathIntType) else None,
            )
            if not (left.is_integer() or left.is_pointer()):
                raise TypeError_(f"cannot order {left}", expr.loc)
            return ty.BOOL
        if op in ("<<", ">>"):
            left = check(expr.left)
            check(expr.right, left if isinstance(left, ty.IntType) else None)
            if not isinstance(left, ty.IntType):
                raise TypeError_("shifts require fixed-width integers",
                                 expr.loc)
            return left
        if op in ("&", "|", "^"):
            left = check(expr.left)
            check(expr.right, left if isinstance(left, ty.IntType) else None)
            if not isinstance(left, ty.IntType):
                raise TypeError_(
                    f"bitwise {op} requires fixed-width integers", expr.loc
                )
            return left
        if op in ("+", "-", "*", "/", "%"):
            if self._is_literal_tree(expr.left) and \
                    not self._is_literal_tree(expr.right):
                # `1 + y` types as `y + 1` does: the literals take the
                # width of a fixed-width other operand.
                right = check(expr.right, width_hint)
                left = check(
                    expr.left,
                    right if isinstance(right, ty.IntType) else width_hint,
                )
            else:
                left = check(
                    expr.left,
                    width_hint if self._is_literal_tree(expr.left) else None,
                )
                if isinstance(left, ty.PtrType) and op in ("+", "-"):
                    # Pointer offset within an array (§3.2.4).
                    check(expr.right)
                    return left
                if isinstance(left, ty.SeqType) and op == "+":
                    check(expr.right, left)
                    return left
                right = check(
                    expr.right,
                    left if not isinstance(left, ty.MathIntType) else None,
                )
            joined = ty.join_integer(left, right)
            if joined is None:
                raise TypeError_(
                    f"cannot apply {op} to {left} and {right}", expr.loc
                )
            return joined
        raise TypeError_(f"unknown binary operator {op}", expr.loc)

    @staticmethod
    def _is_literal_tree(expr: ast.Expr) -> bool:
        """Whether *expr* consists solely of integer literals and
        arithmetic (so its width is free to adopt the context's)."""
        if isinstance(expr, ast.IntLit):
            return True
        if isinstance(expr, ast.Unary) and expr.op == "-":
            return TypeChecker._is_literal_tree(expr.operand)
        if isinstance(expr, ast.Binary) and expr.op in (
            "+", "-", "*", "/", "%",
        ):
            return TypeChecker._is_literal_tree(expr.left) and \
                TypeChecker._is_literal_tree(expr.right)
        return False

    @staticmethod
    def _comparable(left: ty.Type, right: ty.Type) -> bool:
        if left == right:
            return True
        if left.is_integer() and right.is_integer():
            return True
        if left.is_pointer() and right.is_pointer():
            return True
        if isinstance(left, ty.OptionType) or isinstance(right, ty.OptionType):
            return True
        return False

    def _infer_index(self, expr: ast.Index, check) -> ty.Type:
        base = check(expr.base)
        if isinstance(base, ty.ArrayType):
            check(expr.index)
            return base.element
        if isinstance(base, ty.PtrType):
            check(expr.index)
            return base.element
        if isinstance(base, ty.SeqType):
            check(expr.index)
            return base.element
        if isinstance(base, ty.MapType):
            check(expr.index, base.key)
            return base.value
        raise TypeError_(f"cannot index into {base}", expr.loc)

    def _infer_call(
        self, expr: ast.Call, mctx, check, expected: ty.Type | None
    ) -> ty.Type:
        if expr.func == "len":
            if len(expr.args) != 1:
                raise TypeError_("len takes one argument", expr.loc)
            arg = check(expr.args[0])
            if not isinstance(arg, (ty.SeqType, ty.SetType, ty.MapType,
                                    ty.ArrayType)):
                raise TypeError_(f"len of non-collection {arg}", expr.loc)
            return ty.MATHINT
        if expr.func == "abs":
            if len(expr.args) != 1:
                raise TypeError_("abs takes one argument", expr.loc)
            return check(expr.args[0])
        if expr.func in ("first", "last"):
            if len(expr.args) != 1:
                raise TypeError_(f"{expr.func} takes one argument", expr.loc)
            arg = check(expr.args[0])
            if not isinstance(arg, ty.SeqType):
                raise TypeError_(f"{expr.func} requires a sequence", expr.loc)
            return arg.element
        if expr.func in ("drop", "take"):
            if len(expr.args) != 2:
                raise TypeError_(f"{expr.func} takes two arguments",
                                 expr.loc)
            arg = check(expr.args[0])
            check(expr.args[1])
            if not isinstance(arg, ty.SeqType):
                raise TypeError_(f"{expr.func} requires a sequence", expr.loc)
            return arg
        if expr.func == "Some":
            if len(expr.args) != 1:
                raise TypeError_("Some takes one argument", expr.loc)
            if isinstance(expected, ty.OptionType):
                check(expr.args[0], expected.element)
                return expected
            inner = check(expr.args[0])
            return ty.OptionType(inner)
        method = self._ctx.methods.get(expr.func)
        if method is not None:
            # Methods are impure (they touch shared state); allowing
            # them inside expressions would silently drop their effects.
            raise TypeError_(
                f"method {expr.func} cannot be called inside an "
                "expression; assign its result to a variable first",
                expr.loc,
            )
        # Uninterpreted ghost function: all arguments are checked without
        # constraint; the result type is boolean (predicates) unless the
        # context expects something else.
        for arg in expr.args:
            check(arg)
        return expected if expected is not None else ty.BOOL


def typecheck_level(ctx: LevelContext) -> None:
    """Type-check a resolved level in place."""
    TypeChecker(ctx).check()
