"""Expression evaluation over program states.

Evaluates typed AST expressions against a thread's view of a state:
reads of shared memory go through the thread's x86-TSO store buffer
(:meth:`ProgramState.local_view`); reads of non-addressed locals hit the
stack frame; ghost state is sequentially consistent.

Undefined behaviour (§3.2.3/§3.2.4) — freed/null dereference, division
by zero, signed overflow, shifts out of range, out-of-bounds indexing,
pointer comparison across arrays — raises :class:`UBSignal`, which the
step semantics converts into a UB-terminated state.

Assignment targets are *places* (:class:`MemoryPlace`, :class:`LocalPlace`,
:class:`GhostPlace`), computed by :func:`eval_place`.
"""

from __future__ import annotations

from typing import Any

from repro.lang import asts as ast
from repro.lang import types as ty
from repro.lang.resolver import LevelContext
from repro.machine.state import ProgramState, UBSignal
from repro.machine.values import (
    NONE_OPTION,
    NULL,
    CompositeValue,
    GhostMap,
    Location,
    NullPointer,
    OptionValue,
    Pointer,
    Root,
    child_type,
    some,
    type_at_path,
)
from repro.record import Slotted

STATUS_VALID = "valid"
STATUS_FREED = "freed"


# ---------------------------------------------------------------------------
# Places


# Built by the interpreter on every write, so each writes out its
# ``__init__``; immutable by convention.


class MemoryPlace(Slotted):
    """A shared-memory target: a location (possibly of composite type)."""

    __slots__ = ("location", "type")

    def __init__(self, location: Location, type: ty.Type) -> None:
        self.location = location
        self.type = type


class LocalPlace(Slotted):
    """A stack-frame target: local name plus a path into its composite."""

    __slots__ = ("name", "path", "type")

    def __init__(self, name: str, path: tuple[int, ...],
                 type: ty.Type) -> None:
        self.name = name
        self.path = path
        self.type = type


class GhostPlace(Slotted):
    """A ghost-variable target (sequentially consistent)."""

    __slots__ = ("name", "type")

    def __init__(self, name: str, type: ty.Type) -> None:
        self.name = name
        self.type = type


Place = MemoryPlace | LocalPlace | GhostPlace


# ---------------------------------------------------------------------------
# Evaluation context


class EvalContext:
    """Everything needed to evaluate an expression for one thread."""

    __slots__ = (
        "ctx", "state", "tid", "method", "nondet", "old_state",
        "bound", "mem_locals", "memmodel",
    )

    def __init__(
        self,
        ctx: LevelContext,
        state: ProgramState,
        tid: int,
        method: str,
        nondet: dict[int, Any] | None = None,
        old_state: ProgramState | None = None,
        bound: dict[str, Any] | None = None,
        memmodel: Any = None,
    ) -> None:
        self.ctx = ctx
        self.state = state
        self.tid = tid
        self.method = method
        self.nondet = nondet or {}
        self.old_state = old_state
        self.bound = bound or {}
        #: The active MemoryModel, when the caller carries one (contexts
        #: built without a model fall back to the inline TSO write path).
        self.memmodel = memmodel
        mctx = ctx.method_contexts.get(method)
        self.mem_locals = (
            {n for n, info in mctx.locals.items() if info.address_taken}
            if mctx else set()
        )

    def with_state(self, state: ProgramState) -> "EvalContext":
        clone = EvalContext.__new__(EvalContext)
        clone.ctx = self.ctx
        clone.state = state
        clone.tid = self.tid
        clone.method = self.method
        clone.nondet = self.nondet
        clone.old_state = self.old_state
        clone.bound = self.bound
        clone.mem_locals = self.mem_locals
        clone.memmodel = self.memmodel
        return clone


# ---------------------------------------------------------------------------
# Reading memory


def read_location(ec: EvalContext, location: Location, t: ty.Type) -> Any:
    """Read a (possibly composite) object at *location* through the
    thread's TSO view, checking validity of the root."""
    status = ec.state.allocation.get(location.root)
    if status == STATUS_FREED:
        raise UBSignal(f"access to freed object {location.root}")
    if status is None and location.root.kind != "global":
        raise UBSignal(f"access to unallocated object {location.root}")
    return _read_tree(ec, location, t)


def _read_tree(ec: EvalContext, location: Location, t: ty.Type) -> Any:
    if isinstance(t, ty.ArrayType):
        return CompositeValue(tuple(
            _read_tree(ec, location.child(i), t.element)
            for i in range(t.size)
        ))
    if isinstance(t, ty.StructType):
        return CompositeValue(tuple(
            _read_tree(ec, location.child(i), f.type)
            for i, f in enumerate(t.fields)
        ))
    return ec.state.local_view(ec.tid, location)


def global_root(name: str) -> Root:
    return Root("global", name)


def local_root(name: str, serial: int) -> Root:
    return Root("local", name, serial)


# ---------------------------------------------------------------------------
# Place computation (lvalues)


def eval_place(ec: EvalContext, expr: ast.Expr) -> Place:
    """Compute the place denoted by lvalue *expr*."""
    if isinstance(expr, ast.Var):
        return _var_place(ec, expr)
    if isinstance(expr, ast.Deref):
        pointer = eval_expr(ec, expr.operand)
        return _pointer_place(ec, pointer)
    if isinstance(expr, ast.FieldAccess):
        base = eval_place(ec, expr.base)
        base_type = base.type
        if not isinstance(base_type, ty.StructType):
            raise UBSignal(f"field access on non-struct {base_type}")
        index = base_type.field_index(expr.fieldname)
        assert index is not None
        return _child_place(base, index)
    if isinstance(expr, ast.Index):
        base = eval_place(ec, expr.base)
        if isinstance(base.type, ty.PtrType):
            # p[i] on a pointer place: read the pointer then offset.
            pointer = read_place(ec, base)
            index = eval_expr(ec, expr.index)
            shifted = offset_pointer(ec, pointer, index)
            return _pointer_place(ec, shifted)
        index = eval_expr(ec, expr.index)
        if isinstance(base.type, ty.ArrayType):
            if not 0 <= index < base.type.size:
                raise UBSignal(
                    f"index {index} out of bounds for {base.type}"
                )
            return _child_place(base, index)
        if isinstance(base.type, (ty.SeqType, ty.MapType)):
            raise UBSignal("ghost collections are assigned wholesale")
        raise UBSignal(f"cannot index into {base.type}")
    raise UBSignal(f"not an lvalue: {type(expr).__name__}")


def _var_place(ec: EvalContext, expr: ast.Var) -> Place:
    name = expr.name
    mctx = ec.ctx.method_contexts.get(ec.method)
    if mctx and name in mctx.locals:
        info = mctx.locals[name]
        if info.address_taken:
            frame = ec.state.thread(ec.tid).top
            root = local_root(name, frame.serial)
            return MemoryPlace(Location(root), info.type)
        return LocalPlace(name, (), info.type)
    g = ec.ctx.globals.get(name)
    if g is not None:
        if g.ghost:
            return GhostPlace(name, g.var_type)
        return MemoryPlace(Location(global_root(name)), g.var_type)
    raise UBSignal(f"unknown variable {name}")


def _pointer_place(ec: EvalContext, pointer: Any) -> MemoryPlace:
    if isinstance(pointer, NullPointer):
        raise UBSignal("null pointer dereference")
    if not isinstance(pointer, Pointer):
        raise UBSignal(f"dereference of non-pointer {pointer!r}")
    status = ec.state.allocation.get(pointer.location.root)
    if status == STATUS_FREED:
        raise UBSignal(f"dereference of freed pointer {pointer}")
    if status is None and pointer.location.root.kind != "global":
        raise UBSignal(f"dereference of invalid pointer {pointer}")
    return MemoryPlace(pointer.location, pointer.target_type)


def _child_place(place: Place, index: int) -> Place:
    sub = child_type(place.type, index)
    if isinstance(place, MemoryPlace):
        return MemoryPlace(place.location.child(index), sub)
    if isinstance(place, LocalPlace):
        return LocalPlace(place.name, place.path + (index,), sub)
    raise UBSignal("cannot take a component of a ghost variable")


def read_place(ec: EvalContext, place: Place) -> Any:
    if isinstance(place, MemoryPlace):
        return read_location(ec, place.location, place.type)
    if isinstance(place, LocalPlace):
        frame = ec.state.thread(ec.tid).top
        if place.name not in frame.locals:
            raise UBSignal(f"read of undefined local {place.name}")
        value = frame.locals[place.name]
        for index in place.path:
            if not isinstance(value, CompositeValue):
                raise UBSignal("component access on non-composite value")
            value = value.children[index]
        return value
    if place.name not in ec.state.ghosts:
        raise UBSignal(f"read of undefined ghost {place.name}")
    return ec.state.ghosts[place.name]


# ---------------------------------------------------------------------------
# Pointer arithmetic and comparison (§3.2.4)


def offset_pointer(ec: EvalContext, pointer: Any, delta: int) -> Pointer:
    """``p + delta``: must stay within the bounds of a single array
    (one-past-the-end is representable but not dereferenceable)."""
    if not isinstance(pointer, Pointer):
        raise UBSignal("pointer arithmetic on non-pointer")
    if delta == 0:
        return pointer
    location = pointer.location
    if not location.path:
        raise UBSignal("pointer arithmetic on a whole object")
    parent_path = location.path[:-1]
    index = location.path[-1] + delta
    parent_type = _root_type_at(ec, location.root, parent_path)
    if not isinstance(parent_type, ty.ArrayType):
        raise UBSignal("pointer arithmetic outside an array")
    if not 0 <= index <= parent_type.size:
        raise UBSignal(
            f"pointer arithmetic strays outside the array "
            f"(index {index} of {parent_type.size})"
        )
    return Pointer(
        Location(location.root, parent_path + (index,)), pointer.target_type
    )


def _root_type_at(
    ec: EvalContext, root: Root, path: tuple[int, ...]
) -> ty.Type:
    root_type = root_object_type(ec, root)
    return type_at_path(root_type, path)


def root_object_type(ec: EvalContext, root: Root) -> ty.Type:
    """The declared type of the whole object rooted at *root*."""
    if root.kind == "global":
        g = ec.ctx.globals.get(root.name)
        if g is None:
            raise UBSignal(f"unknown global root {root}")
        return g.var_type
    if root.kind == "local":
        for mctx in ec.ctx.method_contexts.values():
            info = mctx.locals.get(root.name)
            if info is not None and info.address_taken:
                return info.type
        raise UBSignal(f"unknown local root {root}")
    # Allocations record their type in the allocation table via a parallel
    # ghost entry maintained by the malloc step; we recover it lazily.
    alloc_type = ec.state.ghosts.get(("alloc_type", root.serial))
    if alloc_type is None:
        raise UBSignal(f"unknown allocation root {root}")
    return alloc_type


def compare_pointers(ec: EvalContext, op: str, left: Any, right: Any) -> bool:
    """Pointer comparison with the paper's UB rules."""
    for p in (left, right):
        if isinstance(p, Pointer):
            if ec.state.allocation.get(p.location.root) == STATUS_FREED:
                raise UBSignal("comparison involving freed pointer")
    if op in ("==", "!="):
        equal = left == right
        return equal if op == "==" else not equal
    # Ordering requires two elements of the same array.
    if not (isinstance(left, Pointer) and isinstance(right, Pointer)):
        raise UBSignal("ordering comparison with null pointer")
    if (
        left.location.root != right.location.root
        or left.location.path[:-1] != right.location.path[:-1]
        or not left.location.path
    ):
        raise UBSignal("ordering comparison of pointers into different arrays")
    a, b = left.location.path[-1], right.location.path[-1]
    return {"<": a < b, "<=": a <= b, ">": a > b, ">=": a >= b}[op]


# ---------------------------------------------------------------------------
# Arithmetic helpers


def _arith_result(t: ty.Type | None, value: int) -> int:
    """Apply C result semantics: unsigned wraps, signed overflow is UB,
    mathematical integers are exact."""
    if isinstance(t, ty.IntType):
        if t.signed:
            if not t.contains(value):
                raise UBSignal(f"signed overflow: {value} does not fit {t}")
            return value
        return t.wrap(value)
    return value


# ---------------------------------------------------------------------------
# Expression evaluation


def eval_expr(ec: EvalContext, expr: ast.Expr) -> Any:
    """Evaluate *expr* to a value in the context *ec*."""
    if isinstance(expr, ast.IntLit):
        return expr.value
    if isinstance(expr, ast.BoolLit):
        return expr.value
    if isinstance(expr, ast.NullLit):
        return NULL
    if isinstance(expr, ast.Nondet):
        key = id(expr)
        if key not in ec.nondet:
            raise UBSignal("unresolved nondeterministic value")
        return ec.nondet[key]
    if isinstance(expr, ast.Var):
        if expr.name in ec.bound:
            return ec.bound[expr.name]
        if expr.name == "None":
            return NONE_OPTION
        return read_place(ec, _var_place(ec, expr))
    if isinstance(expr, ast.MetaVar):
        if expr.name == "$me":
            return ec.tid
        if expr.name == "$sb_empty":
            return ec.state.thread(ec.tid).sb_empty
        raise UBSignal(f"unknown meta variable {expr.name}")
    if isinstance(expr, ast.Unary):
        return _eval_unary(ec, expr)
    if isinstance(expr, ast.Binary):
        return _eval_binary(ec, expr)
    if isinstance(expr, ast.Conditional):
        cond = eval_expr(ec, expr.cond)
        return eval_expr(ec, expr.then if cond else expr.els)
    if isinstance(expr, ast.AddressOf):
        place = eval_place(ec, expr.operand)
        if not isinstance(place, MemoryPlace):
            raise UBSignal("address of a register-allocated or ghost value")
        return Pointer(place.location, place.type)
    if isinstance(expr, ast.Deref):
        pointer = eval_expr(ec, expr.operand)
        place = _pointer_place(ec, pointer)
        return read_place(ec, place)
    if isinstance(expr, (ast.FieldAccess, ast.Index)):
        return _eval_access(ec, expr)
    if isinstance(expr, ast.Old):
        if ec.old_state is None:
            raise UBSignal("old() outside a two-state context")
        return eval_expr(ec.with_state(ec.old_state), expr.operand)
    if isinstance(expr, ast.Allocated):
        pointer = eval_expr(ec, expr.operand)
        if isinstance(pointer, NullPointer):
            return False
        status = ec.state.allocation.get(pointer.location.root)
        if status is None:
            return pointer.location.root.kind == "global"
        return status == STATUS_VALID
    if isinstance(expr, ast.AllocatedArray):
        pointer = eval_expr(ec, expr.operand)
        if isinstance(pointer, NullPointer):
            return False
        status = ec.state.allocation.get(pointer.location.root)
        valid = (status == STATUS_VALID) or (
            status is None and pointer.location.root.kind == "global"
        )
        if not valid:
            return False
        return isinstance(
            _root_type_at(ec, pointer.location.root, pointer.location.path),
            ty.ArrayType,
        )
    if isinstance(expr, ast.Call):
        return _eval_call(ec, expr)
    if isinstance(expr, ast.SeqLit):
        return tuple(eval_expr(ec, e) for e in expr.elements)
    if isinstance(expr, ast.SetLit):
        return frozenset(eval_expr(ec, e) for e in expr.elements)
    if isinstance(expr, ast.Quantifier):
        return _eval_quantifier(ec, expr)
    raise UBSignal(f"cannot evaluate {type(expr).__name__}")


def _eval_unary(ec: EvalContext, expr: ast.Unary) -> Any:
    value = eval_expr(ec, expr.operand)
    if expr.op == "!":
        return not value
    if expr.op == "-":
        return _arith_result(expr.type, -value)
    if expr.op == "~":
        t = expr.type
        assert isinstance(t, ty.IntType)
        return t.wrap(~value)
    raise UBSignal(f"unknown unary {expr.op}")


def _eval_binary(ec: EvalContext, expr: ast.Binary) -> Any:
    op = expr.op
    if op == "&&":
        return bool(eval_expr(ec, expr.left)) and bool(
            eval_expr(ec, expr.right)
        )
    if op == "||":
        return bool(eval_expr(ec, expr.left)) or bool(
            eval_expr(ec, expr.right)
        )
    if op == "==>":
        return (not eval_expr(ec, expr.left)) or bool(
            eval_expr(ec, expr.right)
        )
    if op == "<==":
        return bool(eval_expr(ec, expr.left)) or not eval_expr(ec, expr.right)

    left = eval_expr(ec, expr.left)
    right = eval_expr(ec, expr.right)

    if isinstance(left, (Pointer, NullPointer)) or isinstance(
        right, (Pointer, NullPointer)
    ):
        if op in ("==", "!=", "<", "<=", ">", ">="):
            return compare_pointers(ec, op, left, right)
        if op in ("+", "-") and isinstance(left, Pointer):
            return offset_pointer(ec, left, right if op == "+" else -right)
        raise UBSignal(f"bad pointer operation {op}")

    if op == "in":
        if isinstance(right, GhostMap):
            return left in right
        return left in right
    if op in ("==", "!="):
        return (left == right) if op == "==" else (left != right)
    if op in ("<", "<=", ">", ">="):
        return {"<": left < right, "<=": left <= right,
                ">": left > right, ">=": left >= right}[op]
    if op == "+" and isinstance(left, tuple):
        return left + right  # ghost sequence concatenation
    if op in ("+", "-", "*"):
        raw = {"+": left + right, "-": left - right, "*": left * right}[op]
        return _arith_result(expr.type, raw)
    if op in ("/", "%"):
        if right == 0:
            raise UBSignal("division by zero")
        # C semantics: truncation toward zero.
        quotient = abs(left) // abs(right)
        if (left < 0) != (right < 0):
            quotient = -quotient
        remainder = left - quotient * right
        raw = quotient if op == "/" else remainder
        return _arith_result(expr.type, raw)
    if op in ("<<", ">>"):
        t = expr.type
        assert isinstance(t, ty.IntType)
        if not 0 <= right < t.bits:
            raise UBSignal(f"shift by {right} out of range for {t}")
        if op == "<<":
            return t.wrap(left << right)
        return left >> right
    if op in ("&", "|", "^"):
        t = expr.type
        assert isinstance(t, ty.IntType)
        raw = {"&": left & right, "|": left | right, "^": left ^ right}[op]
        return t.wrap(raw)
    raise UBSignal(f"unknown binary {op}")


def _eval_access(ec: EvalContext, expr: ast.Expr) -> Any:
    """Field access / indexing, handling both memory-resident and
    register-resident (frame) composites, plus ghost collections."""
    if isinstance(expr, ast.FieldAccess):
        base_type = expr.base.type
        if isinstance(base_type, ty.StructType):
            base = eval_expr(ec, expr.base)
            index = base_type.field_index(expr.fieldname)
            assert index is not None
            if not isinstance(base, CompositeValue):
                raise UBSignal("field access on non-composite")
            return base.children[index]
        raise UBSignal(f"field access on {base_type}")
    assert isinstance(expr, ast.Index)
    base = eval_expr(ec, expr.base)
    index = eval_expr(ec, expr.index)
    if isinstance(base, Pointer):
        shifted = offset_pointer(ec, base, index)
        return read_place(ec, _pointer_place(ec, shifted))
    if isinstance(base, CompositeValue):
        if not 0 <= index < len(base.children):
            raise UBSignal(f"index {index} out of bounds")
        return base.children[index]
    if isinstance(base, tuple):  # ghost sequence
        if not 0 <= index < len(base):
            raise UBSignal(f"sequence index {index} out of bounds")
        return base[index]
    if isinstance(base, GhostMap):
        if index not in base:
            raise UBSignal(f"map key {index!r} absent")
        return base[index]
    raise UBSignal(f"cannot index {type(base).__name__}")


# Deterministic interpretation of uninterpreted ghost functions: both
# levels of a refinement pair must see the same function, so we hash the
# (name, arguments) pair into a stable value.
def uninterpreted_value(name: str, args: tuple, result_type: ty.Type) -> Any:
    import hashlib

    digest = hashlib.sha256(repr((name, args)).encode()).digest()
    raw = int.from_bytes(digest[:8], "big")
    if isinstance(result_type, ty.BoolType):
        return bool(raw & 1)
    if isinstance(result_type, ty.IntType):
        return result_type.wrap(raw)
    return raw


def _eval_call(ec: EvalContext, expr: ast.Call) -> Any:
    if expr.func == "len":
        value = eval_expr(ec, expr.args[0])
        if isinstance(value, CompositeValue):
            return len(value.children)
        return len(value)
    if expr.func == "abs":
        return abs(eval_expr(ec, expr.args[0]))
    if expr.func == "Some":
        return some(eval_expr(ec, expr.args[0]))
    if expr.func in ("first", "last"):
        value = eval_expr(ec, expr.args[0])
        if not isinstance(value, tuple) or not value:
            raise UBSignal(f"{expr.func}() of empty or non-sequence")
        return value[0] if expr.func == "first" else value[-1]
    if expr.func in ("drop", "take"):
        value = eval_expr(ec, expr.args[0])
        count = eval_expr(ec, expr.args[1])
        if not isinstance(value, tuple) or not isinstance(count, int):
            raise UBSignal(f"{expr.func}() on non-sequence")
        if not 0 <= count <= len(value):
            raise UBSignal(f"{expr.func}({count}) out of range")
        return value[count:] if expr.func == "drop" else value[:count]
    if expr.func in ec.ctx.methods:
        raise UBSignal(
            f"method {expr.func} evaluated in expression position"
        )
    args = tuple(_hashable(eval_expr(ec, arg)) for arg in expr.args)
    result_type = expr.type if expr.type is not None else ty.BOOL
    return uninterpreted_value(expr.func, args, result_type)


def _hashable(value: Any) -> Any:
    if isinstance(value, CompositeValue):
        return tuple(_hashable(c) for c in value.children)
    return value


_QUANT_DOMAIN = tuple(range(-4, 9))


def _eval_quantifier(ec: EvalContext, expr: ast.Quantifier) -> bool:
    """Bounded quantifier evaluation over a small integer domain.

    Model-checked states are finite; quantifiers in recipes range over
    thread ids and small counters, for which this domain suffices.  The
    symbolic prover handles quantifiers separately.
    """
    domain: tuple = _QUANT_DOMAIN
    if isinstance(expr.boundtype, ty.IntType):
        lo = max(expr.boundtype.min_value, -4)
        hi = min(expr.boundtype.max_value, 8)
        domain = tuple(range(lo, hi + 1))
    results = []
    for value in domain:
        inner = EvalContext(
            ec.ctx, ec.state, ec.tid, ec.method, ec.nondet, ec.old_state,
            {**ec.bound, expr.boundvar: value},
        )
        results.append(bool(eval_expr(inner, expr.body)))
    if expr.kind == "forall":
        return all(results)
    return any(results)
