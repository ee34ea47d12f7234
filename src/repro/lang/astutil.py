"""AST utilities: structural equality, pretty-printing, substitution,
and free-variable computation.

Strategies compare statements across levels with :func:`expr_equal`
(structural, ignoring source locations and inferred types), and render
generated lemmas with :func:`expr_to_str`.
"""

from __future__ import annotations

from repro.lang import asts as ast


# ---------------------------------------------------------------------------
# Structural equality


def expr_equal(a: ast.Expr | None, b: ast.Expr | None) -> bool:
    """Structural equality of expressions, ignoring locations/types."""
    if a is None or b is None:
        return a is b
    if type(a) is not type(b):
        return False
    if isinstance(a, ast.IntLit):
        return a.value == b.value
    if isinstance(a, ast.BoolLit):
        return a.value == b.value
    if isinstance(a, (ast.NullLit, ast.Nondet)):
        return True
    if isinstance(a, ast.Var):
        return a.name == b.name
    if isinstance(a, ast.MetaVar):
        return a.name == b.name
    if isinstance(a, ast.Unary):
        return a.op == b.op and expr_equal(a.operand, b.operand)
    if isinstance(a, ast.Binary):
        return (
            a.op == b.op
            and expr_equal(a.left, b.left)
            and expr_equal(a.right, b.right)
        )
    if isinstance(a, ast.Conditional):
        return (
            expr_equal(a.cond, b.cond)
            and expr_equal(a.then, b.then)
            and expr_equal(a.els, b.els)
        )
    if isinstance(a, (ast.AddressOf, ast.Deref, ast.Old, ast.Allocated,
                      ast.AllocatedArray)):
        return expr_equal(a.operand, b.operand)
    if isinstance(a, ast.FieldAccess):
        return a.fieldname == b.fieldname and expr_equal(a.base, b.base)
    if isinstance(a, ast.Index):
        return expr_equal(a.base, b.base) and expr_equal(a.index, b.index)
    if isinstance(a, ast.Call):
        return (
            a.func == b.func
            and len(a.args) == len(b.args)
            and all(expr_equal(x, y) for x, y in zip(a.args, b.args))
        )
    if isinstance(a, (ast.SeqLit, ast.SetLit)):
        return len(a.elements) == len(b.elements) and all(
            expr_equal(x, y) for x, y in zip(a.elements, b.elements)
        )
    if isinstance(a, ast.Quantifier):
        return (
            a.kind == b.kind
            and a.boundvar == b.boundvar
            and a.boundtype == b.boundtype
            and expr_equal(a.body, b.body)
        )
    return False


# ---------------------------------------------------------------------------
# Pretty printing


_PRECEDENCE = {
    "==>": 1, "<==": 1, "||": 2, "&&": 3,
    "==": 4, "!=": 4, "in": 4,
    "<": 5, "<=": 5, ">": 5, ">=": 5,
    "|": 6, "^": 7, "&": 8, "<<": 9, ">>": 9,
    "+": 10, "-": 10, "*": 11, "/": 11, "%": 11,
}


def expr_to_str(expr: ast.Expr | None, parent_prec: int = 0) -> str:
    """Render an expression back to Armada surface syntax."""
    if expr is None:
        return "<none>"
    if isinstance(expr, ast.IntLit):
        return str(expr.value)
    if isinstance(expr, ast.BoolLit):
        return "true" if expr.value else "false"
    if isinstance(expr, ast.NullLit):
        return "null"
    if isinstance(expr, ast.Nondet):
        return "*"
    if isinstance(expr, (ast.Var, ast.MetaVar)):
        return expr.name
    if isinstance(expr, ast.Unary):
        return f"{expr.op}{expr_to_str(expr.operand, 12)}"
    if isinstance(expr, ast.Binary):
        prec = _PRECEDENCE.get(expr.op, 0)
        text = (
            f"{expr_to_str(expr.left, prec)} {expr.op} "
            f"{expr_to_str(expr.right, prec + 1)}"
        )
        return f"({text})" if prec < parent_prec else text
    if isinstance(expr, ast.Conditional):
        return (
            f"if {expr_to_str(expr.cond)} then {expr_to_str(expr.then)} "
            f"else {expr_to_str(expr.els)}"
        )
    if isinstance(expr, ast.AddressOf):
        return f"&{expr_to_str(expr.operand, 12)}"
    if isinstance(expr, ast.Deref):
        return f"*{expr_to_str(expr.operand, 12)}"
    if isinstance(expr, ast.FieldAccess):
        return f"{expr_to_str(expr.base, 12)}.{expr.fieldname}"
    if isinstance(expr, ast.Index):
        return f"{expr_to_str(expr.base, 12)}[{expr_to_str(expr.index)}]"
    if isinstance(expr, ast.Old):
        return f"old({expr_to_str(expr.operand)})"
    if isinstance(expr, ast.Allocated):
        return f"allocated({expr_to_str(expr.operand)})"
    if isinstance(expr, ast.AllocatedArray):
        return f"allocated_array({expr_to_str(expr.operand)})"
    if isinstance(expr, ast.Call):
        args = ", ".join(expr_to_str(a) for a in expr.args)
        return f"{expr.func}({args})"
    if isinstance(expr, ast.SeqLit):
        return "[" + ", ".join(expr_to_str(e) for e in expr.elements) + "]"
    if isinstance(expr, ast.SetLit):
        return "{" + ", ".join(expr_to_str(e) for e in expr.elements) + "}"
    if isinstance(expr, ast.Quantifier):
        return (
            f"{expr.kind} {expr.boundvar}: {expr.boundtype} . "
            f"{expr_to_str(expr.body)}"
        )
    return f"<{type(expr).__name__}>"


# ---------------------------------------------------------------------------
# Free variables and substitution


def free_vars(expr: ast.Expr, bound: frozenset[str] = frozenset()) -> set[str]:
    """Names of free program variables in *expr*."""
    if isinstance(expr, ast.Var):
        return set() if expr.name in bound or expr.name == "None" \
            else {expr.name}
    if isinstance(expr, ast.Quantifier):
        return free_vars(expr.body, bound | {expr.boundvar})
    result: set[str] = set()
    for child in ast.child_exprs(expr):
        result |= free_vars(child, bound)
    return result


def substitute(expr: ast.Expr, mapping: dict[str, ast.Expr]) -> ast.Expr:
    """Capture-avoiding substitution of variables by expressions.

    Returns a new expression; shared subtrees of unaffected nodes may be
    reused (expressions are treated as immutable after type checking).
    """
    if isinstance(expr, ast.Var):
        replacement = mapping.get(expr.name)
        return replacement if replacement is not None else expr
    if isinstance(expr, ast.Quantifier):
        inner = {k: v for k, v in mapping.items() if k != expr.boundvar}
        if not inner:
            return expr
        return ast.Quantifier(
            expr.kind, expr.boundvar, expr.boundtype,
            substitute(expr.body, inner), loc=expr.loc, type=expr.type,
        )
    children = ast.child_exprs(expr)
    if not children:
        return expr
    new_children = [substitute(c, mapping) for c in children]
    if all(n is o for n, o in zip(new_children, children)):
        return expr
    return _rebuild(expr, new_children)


def _rebuild(expr: ast.Expr, children: list[ast.Expr]) -> ast.Expr:
    common = {"loc": expr.loc, "type": expr.type}
    if isinstance(expr, ast.Unary):
        return ast.Unary(expr.op, children[0], **common)
    if isinstance(expr, ast.Binary):
        return ast.Binary(expr.op, children[0], children[1], **common)
    if isinstance(expr, ast.Conditional):
        return ast.Conditional(children[0], children[1], children[2],
                               **common)
    if isinstance(expr, ast.AddressOf):
        return ast.AddressOf(children[0], **common)
    if isinstance(expr, ast.Deref):
        return ast.Deref(children[0], **common)
    if isinstance(expr, ast.Old):
        return ast.Old(children[0], **common)
    if isinstance(expr, ast.Allocated):
        return ast.Allocated(children[0], **common)
    if isinstance(expr, ast.AllocatedArray):
        return ast.AllocatedArray(children[0], **common)
    if isinstance(expr, ast.FieldAccess):
        return ast.FieldAccess(children[0], expr.fieldname, **common)
    if isinstance(expr, ast.Index):
        return ast.Index(children[0], children[1], **common)
    if isinstance(expr, ast.Call):
        return ast.Call(expr.func, children, **common)
    if isinstance(expr, ast.SeqLit):
        return ast.SeqLit(children, **common)
    if isinstance(expr, ast.SetLit):
        return ast.SetLit(children, **common)
    raise ValueError(f"cannot rebuild {type(expr).__name__}")


def stmt_to_str(stmt: ast.Stmt, indent: int = 0) -> str:
    """Render a statement back to Armada surface syntax (one line per
    simple statement), used for proof artifacts and diagnostics."""
    pad = "  " * indent
    if isinstance(stmt, ast.Block):
        inner = "\n".join(stmt_to_str(s, indent + 1) for s in stmt.stmts)
        return f"{pad}{{\n{inner}\n{pad}}}"
    if isinstance(stmt, ast.VarDeclStmt):
        init = ""
        if stmt.init is not None:
            init = f" := {rhs_to_str(stmt.init)}"
        ghost = "ghost " if stmt.ghost else ""
        return f"{pad}{ghost}var {stmt.name}: {stmt.var_type}{init};"
    if isinstance(stmt, ast.AssignStmt):
        if not stmt.lhss:
            return f"{pad}{rhs_to_str(stmt.rhss[0])};"
        op = "::=" if stmt.tso_bypass else ":="
        lhs = ", ".join(expr_to_str(e) for e in stmt.lhss)
        rhs = ", ".join(rhs_to_str(r) for r in stmt.rhss)
        return f"{pad}{lhs} {op} {rhs};"
    if isinstance(stmt, ast.IfStmt):
        text = f"{pad}if {expr_to_str(stmt.cond)} " + stmt_to_str(
            stmt.then, indent
        ).lstrip()
        if stmt.els is not None:
            text += " else " + stmt_to_str(stmt.els, indent).lstrip()
        return text
    if isinstance(stmt, ast.WhileStmt):
        invs = "".join(
            f" invariant {expr_to_str(e)}" for e in stmt.invariants
        )
        return (
            f"{pad}while {expr_to_str(stmt.cond)}{invs} "
            + stmt_to_str(stmt.body, indent).lstrip()
        )
    if isinstance(stmt, ast.BreakStmt):
        return f"{pad}break;"
    if isinstance(stmt, ast.ContinueStmt):
        return f"{pad}continue;"
    if isinstance(stmt, ast.ReturnStmt):
        value = f" {expr_to_str(stmt.value)}" if stmt.value else ""
        return f"{pad}return{value};"
    if isinstance(stmt, ast.AssertStmt):
        return f"{pad}assert {expr_to_str(stmt.cond)};"
    if isinstance(stmt, ast.AssumeStmt):
        return f"{pad}assume {expr_to_str(stmt.cond)};"
    if isinstance(stmt, ast.SomehowStmt):
        parts = ["somehow"]
        parts += [f"requires {expr_to_str(e)}" for e in stmt.spec.requires]
        parts += [f"modifies {expr_to_str(e)}" for e in stmt.spec.modifies]
        parts += [f"ensures {expr_to_str(e)}" for e in stmt.spec.ensures]
        return pad + " ".join(parts) + ";"
    if isinstance(stmt, ast.DeallocStmt):
        return f"{pad}dealloc {expr_to_str(stmt.ptr)};"
    if isinstance(stmt, ast.JoinStmt):
        return f"{pad}join {expr_to_str(stmt.thread)};"
    if isinstance(stmt, ast.LabelStmt):
        return f"{pad}label {stmt.label}: " + stmt_to_str(
            stmt.stmt, indent
        ).lstrip()
    if isinstance(stmt, ast.YieldStmt):
        return f"{pad}yield;"
    if isinstance(stmt, ast.ExplicitYieldBlock):
        return f"{pad}explicit_yield " + stmt_to_str(stmt.body,
                                                     indent).lstrip()
    if isinstance(stmt, ast.AtomicBlock):
        return f"{pad}atomic " + stmt_to_str(stmt.body, indent).lstrip()
    return f"{pad}<{type(stmt).__name__}>"


def rhs_to_str(rhs: ast.Rhs) -> str:
    if isinstance(rhs, ast.ExprRhs):
        return expr_to_str(rhs.expr)
    if isinstance(rhs, ast.CallRhs):
        return f"{rhs.method}({', '.join(expr_to_str(a) for a in rhs.args)})"
    if isinstance(rhs, ast.MallocRhs):
        return f"malloc({rhs.alloc_type})"
    if isinstance(rhs, ast.CallocRhs):
        return f"calloc({rhs.alloc_type}, {expr_to_str(rhs.count)})"
    if isinstance(rhs, ast.CreateThreadRhs):
        args = ", ".join(expr_to_str(a) for a in rhs.args)
        return f"create_thread {rhs.method}({args})"
    return f"<{type(rhs).__name__}>"
