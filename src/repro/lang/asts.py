"""Abstract syntax trees for the Armada language.

The node set mirrors Figure 7 of the paper: expressions (including
Armada-specific forms such as ``old(e)``, ``$me``, ``$sb_empty``, and the
nondeterministic ``*``), statements (including ``somehow``,
``explicit_yield``/``yield``, ``assume`` enablement conditions, and the
TSO-bypassing assignment ``::=``), and declarations (levels, methods,
structs, global variables, and proof recipes).

All nodes are mutable records (:class:`repro.record.Record`): one
generic constructor, structural ``==`` and a dataclass-style ``repr``,
with no code compiled at import.  Resolution and type checking annotate
nodes in-place via the ``type`` attribute on expressions (filled by
:mod:`repro.lang.typechecker`).
"""

from __future__ import annotations

from typing import Optional

from repro.errors import NOWHERE, SourceLoc
from repro.lang import types as ty
from repro.record import Fresh, Record


# ---------------------------------------------------------------------------
# Expressions


class Expr(Record, keyword_only=("loc", "type"), uncompared=("type",)):
    """Base class for expressions.  ``type`` is set by the type checker."""

    loc: SourceLoc = NOWHERE
    type: Optional[ty.Type] = None


class IntLit(Expr):
    value: int


class BoolLit(Expr):
    value: bool


class NullLit(Expr):
    """The null pointer literal."""


class Var(Expr):
    """A reference to a named variable (global, local, parameter, ghost)."""

    name: str


class MetaVar(Expr):
    """A meta variable: ``$me`` (current thread id) or ``$sb_empty``
    (whether the current thread's store buffer is empty)."""

    name: str


class Unary(Expr):
    """Unary operators: ``-`` ``!`` ``~``."""

    op: str
    operand: Expr


class Binary(Expr):
    """Binary operators, including logical ``&&``/``||``/``==>`` and the
    ghost sequence/set operators (``+`` concatenation, ``in``)."""

    op: str
    left: Expr
    right: Expr


class Conditional(Expr):
    """``if c then a else b`` expression (ghost levels)."""

    cond: Expr
    then: Expr
    els: Expr


class AddressOf(Expr):
    """``&e`` — address of a variable, field, or array element."""

    operand: Expr


class Deref(Expr):
    """``*e`` — pointer dereference."""

    operand: Expr


class FieldAccess(Expr):
    """``e.field`` — struct field access (also used for ``.length``)."""

    base: Expr
    fieldname: str


class Index(Expr):
    """``e1[e2]`` — array, sequence, or map indexing."""

    base: Expr
    index: Expr


class Nondet(Expr):
    """``*`` as an expression: a nondeterministic value (§3.1.2).

    The type is inferred from context; the state-machine translation
    encapsulates the chosen value in the step object (§4.1).
    """


class Old(Expr):
    """``old(e)`` — value of *e* in the pre-state of a two-state predicate."""

    operand: Expr


class Allocated(Expr):
    """``allocated(e)`` — pointer validity predicate."""

    operand: Expr


class AllocatedArray(Expr):
    """``allocated_array(e)`` — array-pointer validity predicate."""

    operand: Expr


class Call(Expr):
    """A call to a pure/ghost function in an expression position.

    Builtins include ``len`` (seq length), ``Some``/``None`` (options),
    and user-declared ghost functions.
    """

    func: str
    args: list[Expr]


class SeqLit(Expr):
    """``[e1, e2, ...]`` — ghost sequence display."""

    elements: list[Expr]


class SetLit(Expr):
    """``{e1, e2, ...}`` — ghost set display."""

    elements: list[Expr]


class Quantifier(Expr):
    """``forall x: T :: body`` / ``exists x: T :: body`` (ghost)."""

    kind: str  # "forall" or "exists"
    boundvar: str
    boundtype: ty.Type
    body: Expr


# ---------------------------------------------------------------------------
# Right-hand sides that are not ordinary expressions


class Rhs(Record, keyword_only=("loc",)):
    """Base class for assignment right-hand sides (Figure 7 ⟨RHS⟩)."""

    loc: SourceLoc = NOWHERE


class ExprRhs(Rhs):
    expr: Expr


class CallRhs(Rhs):
    """``method(args)`` used as an RHS (or as a bare call statement)."""

    method: str
    args: list[Expr]


class MallocRhs(Rhs):
    """``malloc(T)`` — allocate a single object."""

    alloc_type: ty.Type


class CallocRhs(Rhs):
    """``calloc(T, n)`` — allocate a zero-initialized array of objects."""

    alloc_type: ty.Type
    count: Expr


class CreateThreadRhs(Rhs):
    """``create_thread method(args)`` — spawn a thread; value is its id."""

    method: str
    args: list[Expr]


# ---------------------------------------------------------------------------
# Statements


class Stmt(Record, keyword_only=("loc",)):
    loc: SourceLoc = NOWHERE


class Block(Stmt):
    stmts: list[Stmt] = Fresh(list)


class VarDeclStmt(Stmt):
    """``var x: T [:= rhs];`` — stack variable declaration.

    Without an initializer the variable starts with an arbitrary value
    (encapsulated in the method-call step object, §4.1).
    """

    name: str
    var_type: ty.Type
    init: Optional[Rhs] = None
    ghost: bool = False


class AssignStmt(Stmt):
    """Assignment: ``lhs, ... := rhs, ...;`` or TSO-bypassing ``::=``.

    A bare method-call statement is represented with empty ``lhss``.
    """

    lhss: list[Expr]
    rhss: list[Rhs]
    tso_bypass: bool = False


class IfStmt(Stmt):
    cond: Expr
    then: Block
    els: Optional[Block] = None


class WhileStmt(Stmt):
    cond: Expr
    body: Block
    invariants: list[Expr] = Fresh(list)


class BreakStmt(Stmt):
    pass


class ContinueStmt(Stmt):
    pass


class ReturnStmt(Stmt):
    value: Optional[Expr] = None


class AssertStmt(Stmt):
    """``assert e;`` — crashes the program if *e* does not hold (§3.1.2)."""

    cond: Expr


class AssumeStmt(Stmt):
    """``assume e;`` — enablement condition: the statement cannot execute
    unless *e* holds (§3.1.2)."""

    cond: Expr


class SomehowSpec(Record):
    requires: list[Expr] = Fresh(list)
    modifies: list[Expr] = Fresh(list)
    ensures: list[Expr] = Fresh(list)


class SomehowStmt(Stmt):
    """``somehow requires ... modifies ... ensures ...;`` — a declarative
    atomic action (§3.1.2).  Undefined behaviour if a precondition fails;
    havocs the modifies set subject to the two-state postconditions.
    """

    spec: SomehowSpec = Fresh(SomehowSpec)


class DeallocStmt(Stmt):
    ptr: Expr


class JoinStmt(Stmt):
    thread: Expr


class LabelStmt(Stmt):
    label: str
    stmt: Stmt


class ExplicitYieldBlock(Stmt):
    """``explicit_yield { S }`` — the body executes without interruption
    except at ``yield`` points (§3.1.2, following CIVL)."""

    body: Block


class YieldStmt(Stmt):
    pass


class AtomicBlock(Stmt):
    """``atomic { S }`` — executes to completion without interruption
    (but a behaviour may terminate mid-block, §3.1.2)."""

    body: Block


# ---------------------------------------------------------------------------
# Declarations


class Param(Record):
    name: str
    type: ty.Type
    loc: SourceLoc = NOWHERE


class MethodSpec(Record):
    requires: list[Expr] = Fresh(list)
    ensures: list[Expr] = Fresh(list)
    modifies: list[Expr] = Fresh(list)
    reads: list[Expr] = Fresh(list)


class MethodDecl(Record):
    """A method.  ``extern`` methods model runtime/library/OS functions or
    hardware instructions (§3.1.4); their body, if supplied, is a
    concurrency-aware model rather than compiled code.
    """

    name: str
    params: list[Param]
    return_type: ty.Type
    body: Optional[Block]
    spec: MethodSpec = Fresh(MethodSpec)
    is_extern: bool = False
    loc: SourceLoc = NOWHERE


class GlobalVarDecl(Record):
    name: str
    var_type: ty.Type
    init: Optional[Expr] = None
    ghost: bool = False
    loc: SourceLoc = NOWHERE


class StructDecl(Record):
    name: str
    struct_type: ty.StructType = None  # type: ignore[assignment]
    loc: SourceLoc = NOWHERE


class LevelDecl(Record):
    """``level Name { decls }`` — one program in the refinement chain."""

    name: str
    structs: list[StructDecl] = Fresh(list)
    globals: list[GlobalVarDecl] = Fresh(list)
    methods: list[MethodDecl] = Fresh(list)
    loc: SourceLoc = NOWHERE

    def method(self, name: str) -> MethodDecl | None:
        for m in self.methods:
            if m.name == name:
                return m
        return None


class RecipeItem(Record):
    """One directive inside a ``proof`` block after the refinement line.

    The first item names the strategy; its arguments are raw strings
    (identifiers or quoted predicates) interpreted by the strategy.
    Later items may be directives like ``use_regions`` or invariants.
    """

    name: str
    args: list[str] = Fresh(list)
    loc: SourceLoc = NOWHERE


class ProofDecl(Record):
    """``proof Name { refinement Low High; <strategy> args; ... }``"""

    name: str
    low_level: str
    high_level: str
    items: list[RecipeItem] = Fresh(list)
    loc: SourceLoc = NOWHERE

    @property
    def strategy(self) -> RecipeItem:
        """The strategy directive — the first non-auxiliary recipe item."""
        auxiliary = {
            "use_regions", "use_address_invariant", "invariant",
            "rely_guarantee", "lemma", "witness",
        }
        for item in self.items:
            if item.name not in auxiliary:
                return item
        from repro.errors import ParseError

        raise ParseError(f"proof {self.name} names no strategy", self.loc)

    def directives(self, name: str) -> list[RecipeItem]:
        return [item for item in self.items if item.name == name]

    def has_directive(self, name: str) -> bool:
        return any(item.name == name for item in self.items)


class Program(Record):
    """A complete Armada source file: levels plus proof recipes."""

    levels: list[LevelDecl] = Fresh(list)
    proofs: list[ProofDecl] = Fresh(list)

    def level(self, name: str) -> LevelDecl | None:
        for lvl in self.levels:
            if lvl.name == name:
                return lvl
        return None


# ---------------------------------------------------------------------------
# Generic traversal helpers


def child_exprs(expr: Expr) -> list[Expr]:
    """Immediate subexpressions of *expr* (for generic walks)."""
    if isinstance(expr, Unary):
        return [expr.operand]
    if isinstance(expr, Binary):
        return [expr.left, expr.right]
    if isinstance(expr, Conditional):
        return [expr.cond, expr.then, expr.els]
    if isinstance(expr, (AddressOf, Deref, Old, Allocated, AllocatedArray)):
        return [expr.operand]
    if isinstance(expr, FieldAccess):
        return [expr.base]
    if isinstance(expr, Index):
        return [expr.base, expr.index]
    if isinstance(expr, Call):
        return list(expr.args)
    if isinstance(expr, (SeqLit, SetLit)):
        return list(expr.elements)
    if isinstance(expr, Quantifier):
        return [expr.body]
    return []


def walk_expr(expr: Expr):
    """Yield *expr* and all its subexpressions, pre-order."""
    yield expr
    for child in child_exprs(expr):
        yield from walk_expr(child)


def stmt_exprs(stmt: Stmt) -> list[Expr]:
    """Immediate expressions appearing in *stmt* (not recursing into
    sub-statements)."""
    if isinstance(stmt, VarDeclStmt):
        return rhs_exprs(stmt.init) if stmt.init else []
    if isinstance(stmt, AssignStmt):
        exprs = list(stmt.lhss)
        for rhs in stmt.rhss:
            exprs.extend(rhs_exprs(rhs))
        return exprs
    if isinstance(stmt, IfStmt):
        return [stmt.cond]
    if isinstance(stmt, WhileStmt):
        return [stmt.cond, *stmt.invariants]
    if isinstance(stmt, ReturnStmt):
        return [stmt.value] if stmt.value else []
    if isinstance(stmt, (AssertStmt, AssumeStmt)):
        return [stmt.cond]
    if isinstance(stmt, SomehowStmt):
        return [*stmt.spec.requires, *stmt.spec.modifies, *stmt.spec.ensures]
    if isinstance(stmt, DeallocStmt):
        return [stmt.ptr]
    if isinstance(stmt, JoinStmt):
        return [stmt.thread]
    return []


def rhs_exprs(rhs: Rhs) -> list[Expr]:
    if isinstance(rhs, ExprRhs):
        return [rhs.expr]
    if isinstance(rhs, (CallRhs, CreateThreadRhs)):
        return list(rhs.args)
    if isinstance(rhs, CallocRhs):
        return [rhs.count]
    return []


def child_stmts(stmt: Stmt) -> list[Stmt]:
    """Immediate sub-statements of *stmt*."""
    if isinstance(stmt, Block):
        return list(stmt.stmts)
    if isinstance(stmt, IfStmt):
        return [stmt.then] + ([stmt.els] if stmt.els else [])
    if isinstance(stmt, WhileStmt):
        return [stmt.body]
    if isinstance(stmt, LabelStmt):
        return [stmt.stmt]
    if isinstance(stmt, (ExplicitYieldBlock, AtomicBlock)):
        return [stmt.body]
    return []


def walk_stmts(stmt: Stmt):
    """Yield *stmt* and all sub-statements, pre-order."""
    yield stmt
    for child in child_stmts(stmt):
        yield from walk_stmts(child)
