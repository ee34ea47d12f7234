"""Compiled step specialization for the exploration core.

The explicit-state explorer spends nearly all of its time in
``StateMachine.enabled_transitions`` / ``next_state``: for every state it
re-walks the AST of every step at every thread's pc through the generic
evaluator (:mod:`repro.machine.evaluator`), rebuilding an
:class:`EvalContext` per step per state.  This module specializes one
level's step relation into a *compiled* Python successor function — the
same play as the paper's compilation of the step semantics into
per-statement ``NextState`` functions (Figure 12's machine-generated
path), realized with the ``exec``-compile idiom already used by
:mod:`repro.compiler.pybackend`.

For a ``StateMachine`` under any of the three memory models (SC,
x86-TSO, C11 RA) it emits and ``exec``-compiles a flat
``enabled_and_next(state)`` function that returns the exact
``[(Transition, successor_state), ...]`` list the interpreted pipeline
would produce — same transitions, same order, bit-identical successor
states, identical UB reasons — with the per-PC dispatch, guard
evaluation and state construction inlined.  No per-step AST walk, no
``EvalContext`` construction.  The models differ only in the dispatch
loop's environment moves (TSO drains inlined, RA view advances through
the model's hooks) and in how shared writes commit (TSO buffers, SC
writes memory, RA release-writes through ``write_leaves``).

**Fallback rules.**  The specializer is conservative: any step it cannot
prove it compiles faithfully (pointer dereferences, ``somehow``/extern
specs with state-dependent witness candidates, struct writes, ``old()``,
quantifiers, ...) is emitted as a call into the interpreted enumeration
for that single step (:func:`_interp_step`), preserving order and
semantics exactly.  A whole machine falls back (``stepper_for`` returns
``None``) only when codegen fails.  Compiled and interpreted
exploration are differentially tested for bit-identical state sets, UB
reasons and verdicts across all three memory models
(``tests/test_stepc.py``, the fuzz suite).

**Cache key.**  The on-disk cache holds one ``{key}.marshal`` file per
machine: the marshalled ``(source, code)`` pair, so a warm process
``exec``s the code object instead of compiling the source again.  The
key is a structural hash over the level name, the memory model, every
pc (method, yieldability), every step (class, pc, target and full
expression ASTs with their checked types), the variable layout that
drives place classification (globals/ghosts, per-method locals with
address-taken flags, newframe locals),
:func:`repro.hashing.code_version` and the interpreter's bytecode
magic number — so any toolchain or program change invalidates the
entry, and another interpreter's entry is a miss.  An unreadable,
corrupt or stale entry regenerates.  Value *domains* are deliberately
not part of the key: they only affect the parameter tuples bound at
load time, not the generated code.
"""

from __future__ import annotations

import contextlib
import marshal
import os
from importlib.util import MAGIC_NUMBER
from pathlib import Path
from types import CodeType
from typing import Any

from repro.hashing import code_version, structural_hash
from repro.lang import asts as ast
from repro.lang import types as ty
from repro.machine.pmap import PMap
from repro.machine.program import StateMachine, Transition
from repro.machine.state import (
    Frame,
    ProgramState,
    TERM_NORMAL,
    TERM_UB,
    Termination,
    ThreadState,
    UBSignal,
)
from repro.machine.steps import (
    AssertStep,
    AssignStep,
    AssumeStep,
    BranchStep,
    CallStep,
    CreateThreadStep,
    ExternStep,
    JoinStep,
    ReturnStep,
    Step,
)
from repro.machine.values import (
    CompositeValue,
    GhostMap,
    Location,
    NONE_OPTION,
    NULL,
    Root,
    some,
)
from repro.obs import OBS
from repro.record import Record

#: Bump to invalidate every cached source when codegen output changes in
#: a way ``code_version`` alone would not capture (it normally does).
_STEPC_FORMAT = 3

_MISS = object()


class _Unsupported(Exception):
    """Internal: this construct is outside the specializer's coverage."""


# ---------------------------------------------------------------------------
# Runtime helpers injected into every compiled module's namespace.  Each
# replicates one interpreter code path exactly, including UB messages.


def _local_read(locals_map: Any, name: str) -> Any:
    value = locals_map.get(name, _MISS)
    if value is _MISS:
        raise UBSignal(f"read of undefined local {name}")
    return value


def _ghost_read(state: ProgramState, name: str) -> Any:
    value = state.ghosts.get(name, _MISS)
    if value is _MISS:
        raise UBSignal(f"read of undefined ghost {name}")
    return value


def _mem_local_read(
    state: ProgramState, tid: int, name: str, serial: int
) -> Any:
    root = Root("local", name, serial)
    status = state.allocation.get(root)
    if status == "freed":
        raise UBSignal(f"access to freed object {root}")
    if status is None:
        raise UBSignal(f"access to unallocated object {root}")
    return state.local_view(tid, Location(root))


def _seq_index(base: Any, index: Any) -> Any:
    # The non-pointer branches of evaluator._eval_access, verbatim.
    if isinstance(base, CompositeValue):
        if not 0 <= index < len(base.children):
            raise UBSignal(f"index {index} out of bounds")
        return base.children[index]
    if isinstance(base, tuple):
        if not 0 <= index < len(base):
            raise UBSignal(f"sequence index {index} out of bounds")
        return base[index]
    if isinstance(base, GhostMap):
        if index not in base:
            raise UBSignal(f"map key {index!r} absent")
        return base[index]
    raise UBSignal(f"cannot index {type(base).__name__}")


def _signed(value: int, lo: int, hi: int, tname: str) -> int:
    if lo <= value <= hi:
        return value
    raise UBSignal(f"signed overflow: {value} does not fit {tname}")


def _swrap(value: int, bits: int) -> int:
    masked = value & ((1 << bits) - 1)
    if masked >= (1 << (bits - 1)):
        masked -= 1 << bits
    return masked


def _divc(left: int, right: int) -> int:
    if right == 0:
        raise UBSignal("division by zero")
    quotient = abs(left) // abs(right)
    if (left < 0) != (right < 0):
        quotient = -quotient
    return quotient


def _modc(left: int, right: int) -> int:
    return left - _divc(left, right) * right


def _shiftck(amount: int, bits: int, tname: str) -> int:
    if not 0 <= amount < bits:
        raise UBSignal(f"shift by {amount} out of range for {tname}")
    return amount


def _len_value(value: Any) -> int:
    if isinstance(value, CompositeValue):
        return len(value.children)
    return len(value)


def _first(value: Any) -> Any:
    if not isinstance(value, tuple) or not value:
        raise UBSignal("first() of empty or non-sequence")
    return value[0]


def _last(value: Any) -> Any:
    if not isinstance(value, tuple) or not value:
        raise UBSignal("last() of empty or non-sequence")
    return value[-1]


def _drop(value: Any, count: Any) -> Any:
    if not isinstance(value, tuple) or not isinstance(count, int):
        raise UBSignal("drop() on non-sequence")
    if not 0 <= count <= len(value):
        raise UBSignal(f"drop({count}) out of range")
    return value[count:]


def _take(value: Any, count: Any) -> Any:
    if not isinstance(value, tuple) or not isinstance(count, int):
        raise UBSignal("take() on non-sequence")
    if not 0 <= count <= len(value):
        raise UBSignal(f"take({count}) out of range")
    return value[:count]


def _ufn(name: str, args: tuple, result_type: ty.Type) -> Any:
    from repro.machine.evaluator import _hashable, uninterpreted_value

    return uninterpreted_value(
        name, tuple(_hashable(a) for a in args), result_type
    )


def _adv(
    state: ProgramState, tid: int, target: str | None, inside: bool
) -> ProgramState:
    """Step._advance + update_atomic_owner with the pc-yieldability
    lookup folded to a compile-time constant, built by direct
    construction instead of a chain of copies (equality and hashing
    are structural, so the states are bit-identical to the
    interpreter's)."""
    t = state.threads[tid]
    nt = ThreadState(t.tid, target, t.frames, t.store_buffer, t.view)
    if inside:
        ao = tid
    else:
        ao = state.atomic_owner
        if ao == tid:
            ao = None
    return ProgramState(
        state.threads.set(tid, nt), state.memory, state.allocation,
        state.ghosts, state.log, state.termination, state.next_tid,
        state.next_serial, ao, state.histories,
    )


def _term(state: ProgramState, kind: str, detail: str) -> ProgramState:
    """``ProgramState.terminate`` by direct construction."""
    return ProgramState(
        state.threads, state.memory, state.allocation, state.ghosts,
        state.log, Termination(kind, detail), state.next_tid,
        state.next_serial, state.atomic_owner, state.histories,
    )


def _interp_step(
    machine: StateMachine,
    step: Step,
    state: ProgramState,
    tid: int,
    thread: Any,
    emit: Any,
) -> None:
    """Interpreted enumeration of one step — the per-step fallback.
    Mirrors the step portion of ``enabled_transitions`` + ``next_state``
    exactly (same order, same dict copies, same UB conversion)."""
    method = thread.frames[0].method
    for params in machine.param_assignments(step, method, state, tid):
        try:
            is_enabled = step.enabled(machine, state, tid, dict(params))
        except UBSignal:
            is_enabled = True
        if is_enabled:
            transition = Transition(tid, step, params)
            emit((transition, machine.next_state(state, transition)))


_NAMESPACE_BASE = {
    "UBSignal": UBSignal,
    "Transition": Transition,
    "Location": Location,
    "Root": Root,
    "CompositeValue": CompositeValue,
    "NULL": NULL,
    "NONE_OPTION": NONE_OPTION,
    "TERM_UB": TERM_UB,
    "_some": some,
    "_local": _local_read,
    "_ghost": _ghost_read,
    "_mem_local": _mem_local_read,
    "_seq_index": _seq_index,
    "_signed": _signed,
    "_swrap": _swrap,
    "_divc": _divc,
    "_modc": _modc,
    "_shiftck": _shiftck,
    "_len_value": _len_value,
    "_first": _first,
    "_last": _last,
    "_drop": _drop,
    "_take": _take,
    "_ufn": _ufn,
    "_adv": _adv,
    "_term": _term,
    "_MS": _MISS,
    "_PW": PMap._wrap,
    "_TN": Termination(TERM_NORMAL),
    "_interp": _interp_step,
    "Frame": Frame,
    "ThreadState": ThreadState,
    "ProgramState": ProgramState,
    "BOOL": ty.BOOL,
    "MATHINT": ty.MATHINT,
    "IntType": ty.IntType,
}


# ---------------------------------------------------------------------------
# Expression compilation


class _ExprCompiler:
    """Compiles one step's typed AST expressions into Python source.

    The emitted code evaluates subexpressions in exactly the order the
    recursive interpreter does (Python's own left-to-right evaluation)
    and raises :class:`UBSignal` with the interpreter's exact messages.
    Anything outside coverage raises :class:`_Unsupported`, which makes
    the enclosing step fall back to the interpreter.
    """

    def __init__(self, gen: "_Gen", method: str, nondet_index: dict,
                 key_const: str | None, cache_mode: bool = False) -> None:
        self.gen = gen
        self.ctx = gen.machine.ctx
        self.method = method
        self.mctx = self.ctx.method_contexts.get(method)
        #: id(Nondet node) -> index into the step's nondet_vars().
        self.nondet_index = nondet_index
        #: Name of the bound tuple of nondet keys (``NK<n>``).
        self.key_const = key_const
        #: *Hoisted* pure global reads: ``(_g<k>, source)`` pairs the
        #: emitter assigns before the expression uses them.  A mapped
        #: global's ``local_view`` read cannot raise and has no side
        #: effects, so evaluating it early is invisible — and it makes
        #: the read values available as a successor-cache key.
        self.hoisted: list[tuple[str, str]] = []
        self._hoist_map: dict[str, str] = {}
        #: True once the expression read state through something that is
        #: not a hoistable pure read (ghost / memory-resident local):
        #: those can raise mid-expression, so the step's outcome is not
        #: a function of (thread, hoisted reads) alone.
        self.state_dep = False
        #: In cache mode, indexed global-array reads hoist the *whole*
        #: array (pure) and index the tuple, keeping the bounds check —
        #: and its UB — inside the cached computation.
        self.cache_mode = cache_mode

    def _hoist(self, src: str) -> str:
        if not self.cache_mode:
            return src
        name = self._hoist_map.get(src)
        if name is None:
            name = f"_g{len(self._hoist_map)}"
            self._hoist_map[src] = name
            self.hoisted.append((name, src))
        return name

    # -- variable classification ----------------------------------------

    def _local_info(self, name: str):
        if self.mctx and name in self.mctx.locals:
            return self.mctx.locals[name]
        return None

    def _global_decl(self, name: str):
        return self.ctx.globals.get(name)

    # -- compilation ----------------------------------------------------

    def compile(self, expr: ast.Expr) -> str:
        if isinstance(expr, ast.IntLit):
            return repr(expr.value)
        if isinstance(expr, ast.BoolLit):
            return repr(expr.value)
        if isinstance(expr, ast.NullLit):
            return "NULL"
        if isinstance(expr, ast.Nondet):
            index = self.nondet_index.get(id(expr))
            if index is None or self.key_const is None:
                raise _Unsupported("unresolved nondet")
            return f"_pd[{self.key_const}[{index}]]"
        if isinstance(expr, ast.Var):
            return self._compile_var(expr)
        if isinstance(expr, ast.MetaVar):
            if expr.name == "$me":
                return "tid"
            if expr.name == "$sb_empty":
                return "(not thread.store_buffer)"
            raise _Unsupported(f"meta variable {expr.name}")
        if isinstance(expr, ast.Unary):
            return self._compile_unary(expr)
        if isinstance(expr, ast.Binary):
            return self._compile_binary(expr)
        if isinstance(expr, ast.Conditional):
            cond = self.compile(expr.cond)
            then = self.compile(expr.then)
            els = self.compile(expr.els)
            return f"(({then}) if ({cond}) else ({els}))"
        if isinstance(expr, ast.Index):
            return self._compile_index(expr)
        if isinstance(expr, ast.Call):
            return self._compile_call(expr)
        if isinstance(expr, ast.SeqLit):
            if not expr.elements:
                return "()"
            inner = ", ".join(self.compile(e) for e in expr.elements)
            return f"({inner},)"
        if isinstance(expr, ast.SetLit):
            inner = ", ".join(self.compile(e) for e in expr.elements)
            return f"frozenset(({inner},))" if inner else "frozenset()"
        # Old/Deref/AddressOf/FieldAccess/Allocated/Quantifier/...:
        # interpreted territory.
        raise _Unsupported(type(expr).__name__)

    def _compile_var(self, expr: ast.Var) -> str:
        name = expr.name
        info = self._local_info(name)
        if info is not None:
            if info.address_taken:
                if isinstance(info.type, (ty.ArrayType, ty.StructType)):
                    raise _Unsupported("composite memory local")
                self.state_dep = True
                return (f"_mem_local(state, tid, {name!r}, "
                        f"thread.frames[0].serial)")
            return f"_local(_locals, {name!r})"
        if name == "None":
            return "NONE_OPTION"
        g = self._global_decl(name)
        if g is None:
            raise _Unsupported(f"unknown variable {name}")
        if g.ghost:
            self.state_dep = True
            return f"_ghost(state, {name!r})"
        t = g.var_type
        if isinstance(t, ty.ArrayType):
            if isinstance(t.element, (ty.ArrayType, ty.StructType)):
                raise _Unsupported("nested composite global")
            locs = self.gen.global_leaf_locs(name, t.size)
            # Whole-array read: same leaves, same local_view path, same
            # (nonexistent) failure modes as the interpreter's composite
            # read of a fully-mapped global.
            return self._hoist(
                f"CompositeValue(tuple(state.local_view(tid, _l) "
                f"for _l in {locs}))"
            )
        if isinstance(t, ty.StructType):
            raise _Unsupported("struct global read")
        loc = self.gen.global_loc(name)
        return self._hoist(f"state.local_view(tid, {loc})")

    def _arith(self, raw: str, t: ty.Type | None) -> str:
        """Apply evaluator._arith_result to the raw arithmetic source."""
        if isinstance(t, ty.IntType):
            if t.signed:
                return (f"_signed({raw}, {t.min_value}, {t.max_value}, "
                        f"'{t}')")
            mask = (1 << t.bits) - 1
            return f"(({raw}) & {mask:#x})"
        return f"({raw})"

    def _wrap(self, raw: str, t: ty.Type) -> str:
        """Apply IntType.wrap to the raw source (two's complement)."""
        if not isinstance(t, ty.IntType):
            raise _Unsupported("wrap on non-integer type")
        if t.signed:
            return f"_swrap({raw}, {t.bits})"
        mask = (1 << t.bits) - 1
        return f"(({raw}) & {mask:#x})"

    def _compile_unary(self, expr: ast.Unary) -> str:
        operand = self.compile(expr.operand)
        if expr.op == "!":
            return f"(not ({operand}))"
        if expr.op == "-":
            return self._arith(f"-({operand})", expr.type)
        if expr.op == "~":
            return self._wrap(f"~({operand})", expr.type)
        raise _Unsupported(f"unary {expr.op}")

    @staticmethod
    def _pointerish(t: ty.Type | None) -> bool:
        return t is None or isinstance(t, ty.PtrType)

    def _compile_binary(self, expr: ast.Binary) -> str:
        op = expr.op
        if op == "&&":
            left = self.compile(expr.left)
            right = self.compile(expr.right)
            return f"(bool({left}) and bool({right}))"
        if op == "||":
            left = self.compile(expr.left)
            right = self.compile(expr.right)
            return f"(bool({left}) or bool({right}))"
        if op == "==>":
            left = self.compile(expr.left)
            right = self.compile(expr.right)
            return f"((not ({left})) or bool({right}))"
        if op == "<==":
            left = self.compile(expr.left)
            right = self.compile(expr.right)
            return f"(bool({left}) or (not ({right})))"
        # Pointer operands take the compare_pointers/offset_pointer
        # paths, which need an EvalContext: interpreted territory.
        if self._pointerish(expr.left.type) or \
                self._pointerish(expr.right.type):
            raise _Unsupported(f"pointer-typed operand of {op}")
        left = self.compile(expr.left)
        right = self.compile(expr.right)
        if op == "in":
            return f"(({left}) in ({right}))"
        if op in ("==", "!=", "<", "<=", ">", ">="):
            return f"(({left}) {op} ({right}))"
        if op == "+" and isinstance(expr.type, ty.SeqType):
            return f"(({left}) + ({right}))"
        if op in ("+", "-", "*"):
            return self._arith(f"({left}) {op} ({right})", expr.type)
        if op == "/":
            return self._arith(f"_divc({left}, {right})", expr.type)
        if op == "%":
            return self._arith(f"_modc({left}, {right})", expr.type)
        if op in ("<<", ">>"):
            t = expr.type
            if not isinstance(t, ty.IntType):
                raise _Unsupported("shift on non-integer type")
            shifted = f"({left}) {op} _shiftck({right}, {t.bits}, '{t}')"
            if op == "<<":
                return self._wrap(shifted, t)
            return f"(({shifted}))"
        if op in ("&", "|", "^"):
            t = expr.type
            if not isinstance(t, ty.IntType):
                raise _Unsupported("bitop on non-integer type")
            return self._wrap(f"({left}) {op} ({right})", t)
        raise _Unsupported(f"binary {op}")

    def _compile_index(self, expr: ast.Index) -> str:
        base_t = expr.base.type
        if isinstance(base_t, ty.PtrType):
            raise _Unsupported("pointer indexing")
        index = self.compile(expr.index)
        if (
            isinstance(expr.base, ast.Var)
            and self._local_info(expr.base.name) is None
            and expr.base.name != "None"
        ):
            g = self._global_decl(expr.base.name)
            if g is not None and not g.ghost and \
                    isinstance(g.var_type, ty.ArrayType):
                t = g.var_type
                if isinstance(t.element, (ty.ArrayType, ty.StructType)):
                    raise _Unsupported("nested composite element")
                # Reading element i of a fully-mapped global array is
                # leaf-equivalent to the interpreter's composite read
                # followed by child selection; the bounds message below
                # is the CompositeValue branch's.
                locs = self.gen.global_leaf_locs(expr.base.name, t.size)
                tmp = self.gen.tmp_name()
                if self.cache_mode:
                    # Hoist the whole array (pure) so the element value
                    # lands in the successor-cache key; the bounds check
                    # — and its UB — stays in evaluation order.
                    arr = self._hoist(
                        f"tuple(state.local_view(tid, _l) "
                        f"for _l in {locs})"
                    )
                    return (f"({arr}[{tmp}] "
                            f"if 0 <= ({tmp} := ({index})) < {t.size} "
                            f"else _oob({tmp}))")
                return (f"(state.local_view(tid, {locs}[{tmp}]) "
                        f"if 0 <= ({tmp} := ({index})) < {t.size} "
                        f"else _oob({tmp}))")
        base = self.compile(expr.base)
        return f"_seq_index({base}, {index})"

    def _compile_call(self, expr: ast.Call) -> str:
        func = expr.func
        if func == "len":
            return f"_len_value({self.compile(expr.args[0])})"
        if func == "abs":
            return f"abs({self.compile(expr.args[0])})"
        if func == "Some":
            return f"_some({self.compile(expr.args[0])})"
        if func in ("first", "last"):
            inner = self.compile(expr.args[0])
            return f"_{func}({inner})"
        if func in ("drop", "take"):
            value = self.compile(expr.args[0])
            count = self.compile(expr.args[1])
            return f"_{func}({value}, {count})"
        if func in self.ctx.methods:
            raise _Unsupported("method call in expression")
        result_type = expr.type if expr.type is not None else ty.BOOL
        type_src = _type_src(result_type)
        args = ", ".join(self.compile(a) for a in expr.args)
        args_src = f"({args},)" if args else "()"
        return f"_ufn({func!r}, {args_src}, {type_src})"


def _type_src(t: ty.Type) -> str:
    if isinstance(t, ty.BoolType):
        return "BOOL"
    if isinstance(t, ty.MathIntType):
        return "MATHINT"
    if isinstance(t, ty.IntType):
        return f"IntType({t.bits}, {t.signed})"
    raise _Unsupported(f"uninterpreted result type {t}")


def _oob(index: Any) -> Any:
    raise UBSignal(f"index {index} out of bounds")


_NAMESPACE_BASE["_oob"] = _oob


# ---------------------------------------------------------------------------
# Code generation


class _Writer:
    def __init__(self, indent: int = 0) -> None:
        self.lines: list[str] = []
        self.indent = indent

    def emit(self, text: str) -> None:
        self.lines.append("    " * self.indent + text)

    def push(self) -> None:
        self.indent += 1

    def pop(self) -> None:
        self.indent -= 1


class _Gen:
    """Generates the compiled module source for one machine + model."""

    def __init__(self, machine: StateMachine) -> None:
        self.machine = machine
        self.model = machine.memmodel.name
        self.prelude: list[str] = []  # build()-body constant bindings
        self._consts: dict[str, str] = {}  # source expr -> name
        self._counter = 0
        self._tmp_counter = 0
        self.compiled_steps = 0
        self.fallback_steps = 0

    # -- constants bound inside build(machine) --------------------------

    def const(self, src: str, hint: str = "C", dedupe: bool = True) -> str:
        name = self._consts.get(src) if dedupe else None
        if name is None:
            self._counter += 1
            name = f"{hint}{self._counter}"
            if dedupe:
                self._consts[src] = name
            self.prelude.append(f"{name} = {src}")
        return name

    def tmp_name(self) -> str:
        self._tmp_counter += 1
        return f"_w{self._tmp_counter}"

    def global_loc(self, name: str) -> str:
        return self.const(
            f"Location(Root('global', {name!r}))", "LOC"
        )

    def global_leaf_locs(self, name: str, size: int) -> str:
        return self.const(
            f"tuple(Location(Root('global', {name!r}), (_i,)) "
            f"for _i in range({size}))",
            "LOCS",
        )

    def step_ref(self, pc: str, index: int) -> str:
        return self.const(f"_steps[{pc!r}][{index}]", "S")

    def params_ref(self, pc: str, index: int, method: str) -> str:
        step = self.step_ref(pc, index)
        return self.const(
            f"tuple((_p, dict(_p)) for _p in _pa({step}, {method!r}))",
            "P",
        )

    def keys_ref(self, pc: str, index: int) -> str:
        step = self.step_ref(pc, index)
        return self.const(
            f"tuple(_v.key for _v in {step}.nondet_vars())", "NK"
        )

    def inside(self, target: str | None) -> bool:
        return (
            target is not None
            and not self.machine.pcs[target].yieldable
        )

    # -- source assembly ------------------------------------------------

    def generate(self, fingerprint: str) -> str:
        machine = self.machine
        pc_funcs: list[tuple[str, str]] = []  # (pc, function name)
        bodies: list[list[str]] = []
        for n, pc in enumerate(sorted(machine.steps_by_pc)):
            steps = machine.steps_by_pc[pc]
            if not steps:
                continue
            fn_name = f"_pc_{n}"
            w = _Writer(indent=1)
            w.emit(
                f"def {fn_name}(state, tid, thread, threads, _ap, _hT):"
            )
            w.push()
            w.emit(f"# pc {pc}")
            any_locals = False
            step_blocks: list[list[str]] = []
            for i, step in enumerate(steps):
                block = _Writer(indent=w.indent)
                try:
                    uses_locals = self._emit_step(block, pc, i, step)
                    self.compiled_steps += 1
                    any_locals = any_locals or uses_locals
                except _Unsupported:
                    block = _Writer(indent=w.indent)
                    block.emit(
                        f"_interp(machine, {self.step_ref(pc, i)}, "
                        f"state, tid, thread, _ap)"
                    )
                    self.fallback_steps += 1
                step_blocks.append(block.lines)
            if any_locals:
                w.emit("_locals = thread.frames[0].locals")
            for lines in step_blocks:
                w.lines.extend(lines)
            bodies.append(w.lines)
            pc_funcs.append((pc, fn_name))

        out: list[str] = []
        out.append("# Generated by repro.compiler.stepc — do not edit.")
        out.append(f"# level: {machine.level_name}")
        out.append(f"# model: {self.model}")
        out.append(f"# fingerprint: {fingerprint}")
        out.append("")
        out.append("def build(machine):")
        out.append("    mm = machine.memmodel")
        out.append("    _steps = machine.steps_by_pc")
        out.append("    _pa = machine.param_assignments")
        for line in self.prelude:
            out.append("    " + line)
        for body in bodies:
            out.extend(body)
        dispatch = ", ".join(
            f"{pc!r}: {fn}" for pc, fn in pc_funcs
        )
        out.append(f"    _DISPATCH = {{{dispatch}}}")
        if self.model == "tso":
            out.append("    _DC = {}")
        out.append("    def enabled_and_next(state):")
        out.append("        if state.termination is not None:")
        out.append("            return []")
        out.append("        out = []")
        out.append("        _ap = out.append")
        out.append("        threads = state.threads")
        out.append("        ao = state.atomic_owner")
        out.append("        if ao is None:")
        out.append("            _T = [")
        out.append("                (tid, _t, hash((tid, _t)), "
                   "_DISPATCH.get(_t.pc))")
        out.append("                for tid, _t in "
                   "sorted(threads._items.items())]")
        out.append("        else:")
        out.append("            _t0 = threads[ao]")
        out.append("            _T = ((ao, _t0, hash((ao, _t0)), "
                   "_DISPATCH.get(_t0.pc)),)")
        out.append("        for tid, thread, _hT, fn in _T:")
        if self.model == "tso":
            # state.drain_one(tid) by direct construction; the popped
            # entry, the drained ThreadState, the drain Transition and
            # their entry hashes are a pure function of the thread, so
            # they are hash-consed per thread configuration.  The
            # memory write replicates ``PMap.set`` inline, including
            # its same-value short-circuit.
            out.append("            _sb = thread.store_buffer")
            out.append("            if _sb:")
            out.append("                _de = _DC.get(thread)")
            out.append("                if _de is None:")
            out.append("                    _e = _sb[0]")
            out.append("                    _dn = ThreadState(tid, "
                       "thread.pc, thread.frames, _sb[1:], thread.view)")
            out.append("                    _de = (Transition(tid, None, "
                       "()), _dn, _e[0], _e[1], hash((tid, _dn)))")
            out.append("                    _DC[thread] = _de")
            out.append("                _dT = dict(threads._items)")
            out.append("                _dT[tid] = _de[1]")
            out.append("                _aT = threads._acc")
            out.append("                _mem = state.memory")
            out.append("                _loc = _de[2]")
            out.append("                _val = _de[3]")
            out.append("                _old = _mem._items.get(_loc, _MS)")
            out.append("                if _old is _MS or _old != _val:")
            out.append("                    _dM = dict(_mem._items)")
            out.append("                    _dM[_loc] = _val")
            out.append("                    _aM = _mem._acc")
            out.append("                    if _aM is not None:")
            out.append("                        if _old is not _MS:")
            out.append("                            _aM ^= hash((_loc, "
                       "_old))")
            out.append("                        _aM ^= hash((_loc, _val))")
            out.append("                    _mem = _PW(_dM, _aM)")
            out.append("                _ap((_de[0], ProgramState(")
            out.append("                    _PW(_dT, (_aT ^ _hT ^ _de[4]) "
                       "if _aT is not None else None), _mem,")
            out.append("                    state.allocation, state.ghosts, "
                       "state.log, None,")
            out.append("                    state.next_tid, "
                       "state.next_serial, ao, state.histories)))")
        elif self.model == "ra":
            # The thread's view advances, through the model's hooks and
            # in the interpreter's order: before the thread's steps.
            out.append("            for _ep in mm.env_moves(state, thread, "
                       "machine):")
            out.append("                _ap((Transition(tid, None, _ep), "
                       "mm.apply_env(state, tid, _ep)))")
        out.append("            if fn is not None:")
        out.append("                fn(state, tid, thread, threads, _ap, _hT)")
        out.append("        return out")
        out.append("    return enabled_and_next")
        out.append("")
        return "\n".join(out)

    # -- per-step emission ----------------------------------------------

    def _emit_step(
        self, w: _Writer, pc: str, index: int, step: Step
    ) -> bool:
        """Emit the enumeration of one step.  Returns whether the code
        reads ``_locals``.  Raises :class:`_Unsupported` to request the
        interpreted fallback for this step."""
        machine = self.machine
        method = machine.pcs[pc].method
        nondet_vars = step.nondet_vars()
        has_newframe = isinstance(step, (CallStep, CreateThreadStep)) and \
            bool(machine.newframe_locals.get(step.method))
        has_params = bool(nondet_vars) or has_newframe
        nondet_index = {v.key: j for j, v in enumerate(nondet_vars)}
        key_const = self.keys_ref(pc, index) if nondet_vars else None
        step_ref = self.step_ref(pc, index)
        w.emit(f"# step {index}: {type(step).__name__} -> {step.target}")
        body = _Writer(indent=w.indent + (1 if has_params else 0))
        if has_params:
            pt_src, pd_src = "_pt", "_pd"
        else:
            pt_src, pd_src = "()", "{}"

        def mk_ec(cache_mode: bool = False) -> _ExprCompiler:
            return _ExprCompiler(
                self, method, nondet_index, key_const, cache_mode
            )

        cache_used = [False]

        def mk_cache() -> str:
            cache_used[0] = True
            if has_params:
                return "_c"
            return self.const("{}", "C", dedupe=False)

        if isinstance(
            step, (AssignStep, BranchStep, AssumeStep, AssertStep)
        ):
            # These four kinds manage their own parameter loops so a
            # nondet step's whole successor *family* caches under one
            # key (one lookup per state instead of one per row).
            rows = (
                self.params_ref(pc, index, method) if has_params
                else None
            )
            fam = _Writer(indent=w.indent)

            def mk_fam_cache() -> str:
                return self.const("{}", "C", dedupe=False)

            emitter = {
                AssignStep: self._emit_assign,
                BranchStep: self._emit_branch,
                AssumeStep: self._emit_assume,
                AssertStep: self._emit_assert,
            }[type(step)]
            emitter(fam, step, mk_ec, step_ref, pt_src, mk_fam_cache,
                    rows)
            w.lines.extend(fam.lines)
            return any("_locals" in line for line in w.lines)
        if isinstance(step, CallStep):
            self._emit_call(body, step, mk_ec, step_ref, pt_src, pd_src,
                            mk_cache)
        elif isinstance(step, ReturnStep):
            self._emit_return(body, step, mk_ec, step_ref, pt_src,
                              mk_cache)
        elif isinstance(step, CreateThreadStep):
            self._emit_create(body, step, mk_ec(), step_ref, pt_src,
                              pd_src)
        elif isinstance(step, JoinStep):
            self._emit_join(body, step, mk_ec(), step_ref, pt_src)
        elif isinstance(step, ExternStep):
            self._emit_extern(body, step, mk_ec(), step_ref, pt_src)
        else:
            # SomehowStep, ExternSpecStep, MallocStep, DeallocStep:
            # witness candidates / allocation are state-dependent.
            raise _Unsupported(type(step).__name__)
        if has_params:
            if cache_used[0]:
                # Per-parameter-row successor caches ride along in the
                # bound tuple.
                params_ref = self.const(
                    f"tuple((_p, dict(_p), {{}}) for _p in "
                    f"_pa({step_ref}, {method!r}))",
                    "PC",
                )
                w.emit(f"for _pt, _pd, _c in {params_ref}:")
            else:
                params_ref = self.params_ref(pc, index, method)
                w.emit(f"for _pt, _pd in {params_ref}:")
        w.lines.extend(body.lines)
        return any("_locals" in line for line in w.lines)

    def _adv_src(self, step: Step, state_src: str) -> str:
        inside = self.inside(step.target)
        return f"_adv({state_src}, tid, {step.target!r}, {inside})"

    def _emit_thread_build(
        self,
        w: _Writer,
        step: Step,
        local_writes: list[tuple[str, str]] = (),
        sb_writes: list[tuple[str, str]] = (),
        out_var: str = "_nt",
    ) -> None:
        """Emit the stepped thread's successor ``ThreadState`` — local
        writes fold into one rebuilt top frame, TSO-buffered stores
        append to the store buffer, and the pc advances, all in a
        single positional construction."""
        if local_writes:
            w.emit("_f0 = thread.frames[0]")
            locals_src = "_f0.locals" + "".join(
                f".set({name!r}, {val})" for name, val in local_writes
            )
            w.emit(
                f"_nf = Frame(_f0.method, _f0.serial, {locals_src}, "
                f"_f0.return_pc, _f0.return_lhs_key)"
            )
            frames_src = "(_nf,) + thread.frames[1:]"
        else:
            frames_src = "thread.frames"
        if sb_writes:
            entries = ", ".join(
                f"({loc}, {val})" for loc, val in sb_writes
            )
            sb_src = f"thread.store_buffer + ({entries},)"
        else:
            sb_src = "thread.store_buffer"
        w.emit(
            f"{out_var} = ThreadState(tid, {step.target!r}, "
            f"{frames_src}, {sb_src}, thread.view)"
        )

    def _threads_src(
        self, new_thread: str, new_hash: str | None = None
    ) -> list[str]:
        """Lines replicating ``threads.set(tid, new_thread)`` inline —
        ``PMap.set`` minus the no-op equality probe (a fresh but equal
        map is structurally identical), with the incremental hash
        accumulator derived exactly as ``PMap.set`` derives it.  The
        old entry's hash is the driver-computed ``_hT``; *new_hash*
        supplies a precomputed hash for the new entry."""
        nh = new_hash or f"hash((tid, {new_thread}))"
        return [
            "_dT = dict(threads._items)",
            f"_dT[tid] = {new_thread}",
            "_aT = threads._acc",
            f"_nT = _PW(_dT, (_aT ^ _hT ^ {nh}) "
            f"if _aT is not None else None)",
        ]

    def _emit_build(
        self,
        w: _Writer,
        step: Step,
        local_writes: list[tuple[str, str]] = (),
        sb_writes: list[tuple[str, str]] = (),
        mem_writes: list[tuple[str, str]] = (),
        ghost_writes: list[tuple[str, str]] = (),
        assign_to: str = "_ns",
    ) -> None:
        """Emit the *fused* successor construction: every write of the
        step plus the pc advance collapse into one ``ThreadState`` and
        one ``ProgramState`` built positionally, with no intermediate
        copied states.  Sound because (a) the writes themselves cannot
        raise — every UB check is emitted before this point, in
        interpreter order — and (b) a stepping thread always
        satisfies ``atomic_owner in (None, tid)``, so the post-step
        owner is the compile-time constant ``tid``/``None``.
        Expects ``state``/``thread``/``threads`` in scope."""
        self._emit_thread_build(w, step, local_writes, sb_writes)
        for line in self._threads_src("_nt"):
            w.emit(line)
        mem_src = "state.memory" + "".join(
            f".set({loc}, {val})" for loc, val in mem_writes
        )
        ghost_src = "state.ghosts" + "".join(
            f".set({name!r}, {val})" for name, val in ghost_writes
        )
        ao_src = "tid" if self.inside(step.target) else "None"
        w.emit(
            f"{assign_to} = ProgramState(_nT, "
            f"{mem_src}, state.allocation, {ghost_src}, state.log, "
            f"None, state.next_tid, state.next_serial, {ao_src}, "
            f"state.histories)"
        )

    def _emit_hoisted(self, w: _Writer, ec: _ExprCompiler) -> None:
        for name, src in ec.hoisted:
            w.emit(f"{name} = {src}")

    def _cache_key_src(self, ec: _ExprCompiler) -> str:
        if not ec.hoisted:
            return "thread"
        names = ", ".join(name for name, _src in ec.hoisted)
        return f"(thread, {names})"

    def _emit_apply_entry(
        self, w: _Writer, step: Step, check_none: bool = False
    ) -> None:
        """Emit the application of a successor-cache entry ``_e`` at the
        current state: ``None`` → disabled, a cached ``ThreadState`` →
        splice it in (its hash is already memoized on the shared
        object), a ``(kind, detail)`` pair → terminate."""
        if check_none:
            w.emit("if _e is not None:")
            w.push()
        w.emit("_p = _e[1]")
        w.emit("if _p.__class__ is ThreadState:")
        w.push()
        for line in self._threads_src("_p", new_hash="_e[2]"):
            w.emit(line)
        ao_src = "tid" if self.inside(step.target) else "None"
        w.emit(
            f"_ap((_e[0], ProgramState(_nT, state.memory, "
            f"state.allocation, state.ghosts, state.log, None, "
            f"state.next_tid, state.next_serial, {ao_src}, "
            f"state.histories)))"
        )
        w.pop()
        w.emit("else:")
        w.push()
        w.emit("_ap((_e[0], _term(state, _p[0], _p[1])))")
        w.pop()
        if check_none:
            w.pop()

    def _emit_family(
        self,
        w: _Writer,
        step: Step,
        ec: _ExprCompiler,
        mk_cache,
        rows: str | None,
        compute,
        check_none: bool,
    ) -> None:
        """Emit the successor-cache scaffolding around *compute* (which
        emits code assigning the entry ``_e`` for the bindings in
        scope).  Without parameter rows the cache maps key → entry;
        with rows it maps key → tuple of per-row entries, computed in
        one pass on miss and applied in order on every visit."""
        cache = mk_cache()
        self._emit_hoisted(w, ec)
        key = self._cache_key_src(ec)
        if rows is None:
            w.emit(f"_e = {cache}.get({key}, _MS)")
            w.emit("if _e is _MS:")
            w.push()
            compute(w)
            w.emit(f"{cache}[{key}] = _e")
            w.pop()
            self._emit_apply_entry(w, step, check_none=check_none)
            return
        w.emit(f"_F = {cache}.get({key}, _MS)")
        w.emit("if _F is _MS:")
        w.push()
        w.emit("_F = []")
        w.emit(f"for _pt, _pd in {rows}:")
        w.push()
        compute(w)
        w.emit("_F.append(_e)")
        w.pop()
        w.emit(f"_F = tuple(_F)")
        w.emit(f"{cache}[{key}] = _F")
        w.pop()
        w.emit("for _e in _F:")
        w.push()
        self._emit_apply_entry(w, step, check_none=check_none)
        w.pop()

    def _emit_fit(self, w: _Writer, t: ty.Type | None, val: str) -> None:
        if isinstance(t, ty.IntType):
            w.emit(
                f"if isinstance({val}, int) and not isinstance({val}, "
                f"bool) and not ({t.min_value} <= {val} <= "
                f"{t.max_value}):"
            )
            w.push()
            w.emit(f'raise UBSignal(f"value {{{val}}} does not fit {t}")')
            w.pop()

    # -- lvalue classification and write emission ------------------------

    def _classify_lhs(self, ec: _ExprCompiler, lhs: ast.Expr):
        """Returns a place spec for the supported lvalue shapes:
        ('local', name) | ('memlocal', name) | ('global', loc_const) |
        ('gelem', locs_const, size, typestr) | ('ghost', name)."""
        if isinstance(lhs, ast.Var):
            info = ec._local_info(lhs.name)
            if info is not None:
                if info.address_taken:
                    if isinstance(info.type,
                                  (ty.ArrayType, ty.StructType)):
                        raise _Unsupported("composite memory local lhs")
                    return ("memlocal", lhs.name)
                return ("local", lhs.name)
            g = ec._global_decl(lhs.name)
            if g is None:
                raise _Unsupported(f"unknown lvalue {lhs.name}")
            if g.ghost:
                return ("ghost", lhs.name)
            if isinstance(g.var_type, (ty.ArrayType, ty.StructType)):
                raise _Unsupported("composite global lhs")
            return ("global", self.global_loc(lhs.name))
        if isinstance(lhs, ast.Index) and isinstance(lhs.base, ast.Var):
            base = lhs.base
            if ec._local_info(base.name) is not None:
                raise _Unsupported("indexed local lhs")
            g = ec._global_decl(base.name)
            if g is None or g.ghost or not isinstance(
                g.var_type, ty.ArrayType
            ):
                raise _Unsupported("indexed non-array lhs")
            t = g.var_type
            if isinstance(t.element, (ty.ArrayType, ty.StructType)):
                raise _Unsupported("nested composite element lhs")
            return (
                "gelem",
                self.global_leaf_locs(base.name, t.size),
                t.size,
                str(t),
            )
        raise _Unsupported(f"lvalue {type(lhs).__name__}")

    def _emit_write(
        self,
        w: _Writer,
        spec: tuple,
        val: str,
        buffered: bool,
        idx: str | None = None,
    ) -> None:
        kind = spec[0]
        if kind == "local":
            w.emit(
                f"_ns = _ns.with_thread(_ns.threads[tid]"
                f".set_local({spec[1]!r}, {val}))"
            )
        elif kind == "ghost":
            w.emit(f"_ns = _ns.with_ghost({spec[1]!r}, {val})")
        elif kind == "global":
            w.emit(
                f"_ns = mm.write_leaves(_ns, tid, (({spec[1]}, {val}),), "
                f"{buffered})"
            )
        elif kind == "gelem":
            w.emit(
                f"_ns = mm.write_leaves(_ns, tid, (({spec[1]}[{idx}], "
                f"{val}),), {buffered})"
            )
        elif kind == "memlocal":
            name = spec[1]
            w.emit(
                f"_r = Root('local', {name!r}, thread.frames[0].serial)"
            )
            w.emit("_rst = _ns.allocation.get(_r)")
            w.emit("if _rst == 'freed':")
            w.push()
            w.emit('raise UBSignal(f"write to freed object {_r}")')
            w.pop()
            w.emit("if _rst is None:")
            w.push()
            w.emit('raise UBSignal(f"write to invalid object {_r}")')
            w.pop()
            w.emit(
                f"_ns = mm.write_leaves(_ns, tid, ((Location(_r), "
                f"{val}),), {buffered})"
            )
        else:  # pragma: no cover - spec kinds are closed
            raise _Unsupported(kind)

    # -- step emitters ---------------------------------------------------

    def _emit_assign(self, w, step: AssignStep, mk_ec, step_ref, pt_src,
                     mk_cache, rows=None):
        buffered = self.model == "tso" and not step.tso_bypass
        ec = mk_ec(True)
        specs = [self._classify_lhs(ec, lhs) for lhs in step.lhss]
        # A step's outcome is a pure function of (thread, hoisted reads,
        # params) — and therefore successor-cacheable — when its effects
        # stay in the thread: local writes always, shared writes only
        # when TSO buffers them (a store-buffer append is thread state).
        effects_local = all(
            s[0] == "local" or (buffered and s[0] in ("global", "gelem"))
            for s in specs
        )
        rhs_srcs = [ec.compile(rhs) for rhs in step.rhss]
        idx_srcs = [
            ec.compile(lhs.index) if spec[0] == "gelem" else None
            for lhs, spec in zip(step.lhss, specs)
        ]
        cacheable = effects_local and not ec.state_dep
        if not cacheable:
            # Recompile without whole-array hoisting of indexed reads.
            ec = mk_ec(False)
            rhs_srcs = [ec.compile(rhs) for rhs in step.rhss]
            idx_srcs = [
                ec.compile(lhs.index) if spec[0] == "gelem" else None
                for lhs, spec in zip(step.lhss, specs)
            ]

        def emit_checks(w: _Writer):
            # 1. all rhs values, in order
            vals = []
            for j, src in enumerate(rhs_srcs):
                w.emit(f"_v{j} = {src}")
                vals.append(f"_v{j}")
            # 2. all places, in order (index evaluation + bounds checks)
            idx_names: list[str | None] = []
            for j, (spec, idx_src) in enumerate(zip(specs, idx_srcs)):
                if spec[0] == "gelem":
                    w.emit(f"_i{j} = {idx_src}")
                    w.emit(f"if not 0 <= _i{j} < {spec[2]}:")
                    w.push()
                    w.emit(
                        f'raise UBSignal(f"index {{_i{j}}} out of '
                        f'bounds for {spec[3]}")'
                    )
                    w.pop()
                    idx_names.append(f"_i{j}")
                else:
                    idx_names.append(None)
            # 3. fit checks + UB checks in lhs order, collecting the
            # writes (none of which can raise) for one fused
            # construction.  Allocation never changes during an assign,
            # so checking every memlocal status against the original
            # state matches the interpreter's evolving-state checks.
            local_writes: list[tuple[str, str]] = []
            shared_writes: list[tuple[str, str]] = []  # sb or memory
            ghost_writes: list[tuple[str, str]] = []
            for j, (lhs, spec, val, idx) in enumerate(
                zip(step.lhss, specs, vals, idx_names)
            ):
                self._emit_fit(w, lhs.type, val)
                kind = spec[0]
                if kind == "local":
                    local_writes.append((spec[1], val))
                elif kind == "ghost":
                    ghost_writes.append((spec[1], val))
                elif kind == "global":
                    shared_writes.append((spec[1], val))
                elif kind == "gelem":
                    shared_writes.append((f"{spec[1]}[{idx}]", val))
                elif kind == "memlocal":
                    w.emit(
                        f"_r{j} = Root('local', {spec[1]!r}, "
                        f"thread.frames[0].serial)"
                    )
                    w.emit(f"_rst = state.allocation.get(_r{j})")
                    w.emit("if _rst == 'freed':")
                    w.push()
                    w.emit(
                        f'raise UBSignal(f"write to freed object '
                        f'{{_r{j}}}")'
                    )
                    w.pop()
                    w.emit("if _rst is None:")
                    w.push()
                    w.emit(
                        f'raise UBSignal(f"write to invalid object '
                        f'{{_r{j}}}")'
                    )
                    w.pop()
                    shared_writes.append((f"Location(_r{j})", val))
                else:  # pragma: no cover - spec kinds are closed
                    raise _Unsupported(kind)
            return local_writes, shared_writes, ghost_writes

        if cacheable:
            def compute(cw):
                cw.emit("try:")
                cw.push()
                local_writes, sb_writes, _ghosts = emit_checks(cw)
                self._emit_thread_build(cw, step, local_writes, sb_writes)
                cw.emit(
                    f"_e = (Transition(tid, {step_ref}, {pt_src}), _nt, "
                    f"hash((tid, _nt)))"
                )
                cw.pop()
                cw.emit("except UBSignal as _u:")
                cw.push()
                cw.emit(
                    f"_e = (Transition(tid, {step_ref}, {pt_src}), "
                    f"(TERM_UB, _u.reason))"
                )
                cw.pop()

            self._emit_family(w, step, ec, mk_cache, rows, compute,
                              check_none=False)
            return
        if rows is not None:
            w.emit(f"for _pt, _pd in {rows}:")
            w.push()
        w.emit("try:")
        w.push()
        self._emit_hoisted(w, ec)
        local_writes, shared_writes, ghost_writes = emit_checks(w)
        # RA stores are release writes (history, view and memory), so
        # they go through the model after the fused build; they touch
        # neither the frame nor the pc, so the order is invisible.
        release = self.model == "ra"
        self._emit_build(
            w, step,
            local_writes=local_writes,
            sb_writes=shared_writes if buffered else [],
            mem_writes=[] if buffered or release else shared_writes,
            ghost_writes=ghost_writes,
        )
        if release and shared_writes:
            leaves = "".join(f"({loc}, {val}), " for loc, val in shared_writes)
            w.emit(f"_ns = mm.write_leaves(_ns, tid, ({leaves}), False)")
        w.pop()
        w.emit("except UBSignal as _u:")
        w.push()
        w.emit("_ns = _term(state, TERM_UB, _u.reason)")
        w.pop()
        w.emit(f"_ap((Transition(tid, {step_ref}, {pt_src}), _ns))")
        if rows is not None:
            w.pop()

    def _emit_branch(self, w, step: BranchStep, mk_ec, step_ref, pt_src,
                     mk_cache, rows=None):
        if step.cond is None:
            def compute(cw):
                self._emit_thread_build(cw, step)
                cw.emit(
                    f"_e = (Transition(tid, {step_ref}, {pt_src}), _nt, "
                    f"hash((tid, _nt)))"
                )

            self._emit_family(w, step, mk_ec(True), mk_cache, rows,
                              compute, check_none=False)
            return
        ec = mk_ec(True)
        cond = ec.compile(step.cond)
        if ec.state_dep:
            ec = mk_ec(False)
            cond = ec.compile(step.cond)
            if rows is not None:
                w.emit(f"for _pt, _pd in {rows}:")
                w.push()
            w.emit("try:")
            w.push()
            self._emit_hoisted(w, ec)
            w.emit(f"_en = bool({cond}) == {step.when}")
            w.emit("_ub = None")
            w.pop()
            w.emit("except UBSignal as _u:")
            w.push()
            # A UB guard fires only via the when=True twin (BranchStep).
            w.emit(f"_en = {step.when}")
            w.emit("_ub = _u.reason")
            w.pop()
            w.emit("if _en:")
            w.push()
            w.emit("if _ub is not None:")
            w.push()
            w.emit("_ns = _term(state, TERM_UB, _ub)")
            w.pop()
            w.emit("else:")
            w.push()
            self._emit_build(w, step)
            w.pop()
            w.emit(
                f"_ap((Transition(tid, {step_ref}, {pt_src}), "
                f"_ns))"
            )
            w.pop()
            if rows is not None:
                w.pop()
            return

        def compute(cw):
            cw.emit("try:")
            cw.push()
            cw.emit(f"_en = bool({cond}) == {step.when}")
            cw.emit("_ub = None")
            cw.pop()
            cw.emit("except UBSignal as _u:")
            cw.push()
            # A UB guard fires only via the when=True twin (BranchStep).
            cw.emit(f"_en = {step.when}")
            cw.emit("_ub = _u.reason")
            cw.pop()
            cw.emit("if not _en:")
            cw.push()
            cw.emit("_e = None")
            cw.pop()
            cw.emit("elif _ub is not None:")
            cw.push()
            cw.emit(
                f"_e = (Transition(tid, {step_ref}, {pt_src}), "
                f"(TERM_UB, _ub))"
            )
            cw.pop()
            cw.emit("else:")
            cw.push()
            self._emit_thread_build(cw, step)
            cw.emit(
                f"_e = (Transition(tid, {step_ref}, {pt_src}), _nt, "
                f"hash((tid, _nt)))"
            )
            cw.pop()

        self._emit_family(w, step, ec, mk_cache, rows, compute,
                          check_none=True)

    def _emit_assume(self, w, step: AssumeStep, mk_ec, step_ref, pt_src,
                     mk_cache, rows=None):
        ec = mk_ec(True)
        cond = ec.compile(step.cond)
        if ec.state_dep:
            ec = mk_ec(False)
            cond = ec.compile(step.cond)
            if rows is not None:
                w.emit(f"for _pt, _pd in {rows}:")
                w.push()
            w.emit("try:")
            w.push()
            self._emit_hoisted(w, ec)
            w.emit(f"_en = bool({cond})")
            w.pop()
            w.emit("except UBSignal:")
            w.push()
            w.emit("_en = False")
            w.pop()
            w.emit("if _en:")
            w.push()
            self._emit_build(w, step)
            w.emit(
                f"_ap((Transition(tid, {step_ref}, {pt_src}), "
                f"_ns))"
            )
            w.pop()
            if rows is not None:
                w.pop()
            return

        def compute(cw):
            cw.emit("try:")
            cw.push()
            cw.emit(f"_en = bool({cond})")
            cw.pop()
            cw.emit("except UBSignal:")
            cw.push()
            cw.emit("_en = False")
            cw.pop()
            cw.emit("if _en:")
            cw.push()
            self._emit_thread_build(cw, step)
            cw.emit(
                f"_e = (Transition(tid, {step_ref}, {pt_src}), _nt, "
                f"hash((tid, _nt)))"
            )
            cw.pop()
            cw.emit("else:")
            cw.push()
            cw.emit("_e = None")
            cw.pop()

        self._emit_family(w, step, ec, mk_cache, rows, compute,
                          check_none=True)

    def _emit_assert(self, w, step: AssertStep, mk_ec, step_ref, pt_src,
                     mk_cache, rows=None):
        ec = mk_ec(True)
        cond = ec.compile(step.cond)
        reason = f"at {step.pc}"
        if ec.state_dep:
            ec = mk_ec(False)
            cond = ec.compile(step.cond)
            if rows is not None:
                w.emit(f"for _pt, _pd in {rows}:")
                w.push()
            w.emit("try:")
            w.push()
            self._emit_hoisted(w, ec)
            w.emit(f"if not ({cond}):")
            w.push()
            w.emit(f"_ns = _term(state, 'assert_failure', {reason!r})")
            w.pop()
            w.emit("else:")
            w.push()
            self._emit_build(w, step)
            w.pop()
            w.pop()
            w.emit("except UBSignal as _u:")
            w.push()
            w.emit("_ns = _term(state, TERM_UB, _u.reason)")
            w.pop()
            w.emit(
                f"_ap((Transition(tid, {step_ref}, {pt_src}), "
                f"_ns))"
            )
            if rows is not None:
                w.pop()
            return

        def compute(cw):
            cw.emit("try:")
            cw.push()
            cw.emit(f"if not ({cond}):")
            cw.push()
            cw.emit(
                f"_e = (Transition(tid, {step_ref}, {pt_src}), "
                f"('assert_failure', {reason!r}))"
            )
            cw.pop()
            cw.emit("else:")
            cw.push()
            self._emit_thread_build(cw, step)
            cw.emit(
                f"_e = (Transition(tid, {step_ref}, {pt_src}), _nt, "
                f"hash((tid, _nt)))"
            )
            cw.pop()
            cw.pop()
            cw.emit("except UBSignal as _u:")
            cw.push()
            cw.emit(
                f"_e = (Transition(tid, {step_ref}, {pt_src}), "
                f"(TERM_UB, _u.reason))"
            )
            cw.pop()

        self._emit_family(w, step, ec, mk_cache, rows, compute,
                          check_none=False)

    def _no_address_taken(self, method: str) -> bool:
        mctx = self.machine.ctx.method_contexts.get(method)
        if mctx is None:
            return True
        return not any(i.address_taken for i in mctx.locals.values())

    def _emit_call(self, w, step: CallStep, mk_ec, step_ref, pt_src,
                   pd_src, mk_cache):
        ec = mk_ec(True)
        args = ", ".join(ec.compile(a) for a in step.args)
        # A call's successor is a pure function of (thread, hoisted
        # reads, next_serial): the pushed frame embeds next_serial, and
        # a callee without address-taken locals touches neither memory
        # nor allocation.  next_serial is a multiset counter (one bump
        # per call on any thread), so interleavings of the same call
        # history share cache keys.
        cacheable = (
            not ec.state_dep and self._no_address_taken(step.method)
        )
        if not cacheable:
            ec = mk_ec(False)
            args = ", ".join(ec.compile(a) for a in step.args)
            w.emit("try:")
            w.push()
            w.emit(
                f"_ns = machine.push_frame(state, tid, {step.method!r}, "
                f"[{args}], {step.target!r}, {step.result_local!r}, "
                f"{pd_src})"
            )
            w.pop()
            w.emit("except UBSignal as _u:")
            w.push()
            w.emit("_ns = _term(state, TERM_UB, _u.reason)")
            w.pop()
            w.emit(
                f"_ap((Transition(tid, {step_ref}, {pt_src}), "
                f"_ns))"
            )
            return
        entry = self.machine.method_entry[step.method]
        cache = mk_cache()
        self._emit_hoisted(w, ec)
        base_key = self._cache_key_src(ec)
        if base_key == "thread":
            key = "(thread, state.next_serial)"
        else:
            key = base_key[:-1] + ", state.next_serial)"
        w.emit(f"_e = {cache}.get({key}, _MS)")
        w.emit("if _e is _MS:")
        w.push()
        w.emit("try:")
        w.push()
        w.emit(
            f"_nf = machine._make_frame(state, {step.method!r}, "
            f"[{args}], {pd_src}, {step.target!r}, "
            f"{step.result_local!r})[1]"
        )
        w.emit(
            f"_nt = ThreadState(tid, {entry!r}, "
            f"(_nf,) + thread.frames, thread.store_buffer, thread.view)"
        )
        w.emit(
            f"_e = (Transition(tid, {step_ref}, {pt_src}), _nt, "
            f"hash((tid, _nt)))"
        )
        w.pop()
        w.emit("except UBSignal as _u:")
        w.push()
        w.emit(
            f"_e = (Transition(tid, {step_ref}, {pt_src}), "
            f"(TERM_UB, _u.reason))"
        )
        w.pop()
        w.emit(f"{cache}[{key}] = _e")
        w.pop()
        ao = "tid" if self.inside(entry) else "None"
        w.emit("_p = _e[1]")
        w.emit("if _p.__class__ is ThreadState:")
        w.push()
        for line in self._threads_src("_p", new_hash="_e[2]"):
            w.emit(line)
        w.emit(
            f"_ap((_e[0], ProgramState(_nT, state.memory, "
            f"state.allocation, state.ghosts, state.log, None, "
            f"state.next_tid, state.next_serial + 1, {ao}, "
            f"state.histories)))"
        )
        w.pop()
        w.emit("else:")
        w.push()
        w.emit("_ap((_e[0], _term(state, _p[0], _p[1])))")
        w.pop()

    def _emit_return(self, w, step: ReturnStep, mk_ec, step_ref, pt_src,
                     mk_cache):
        ec = mk_ec(True)
        value = (
            ec.compile(step.value) if step.value is not None else None
        )
        # A return's successor is a pure function of (thread, hoisted
        # reads) when the returning method has no address-taken locals
        # (no roots to free): pop the frame, write the return value
        # into the caller, advance to the runtime return_pc.  The
        # atomic-owner and main-exit-termination decisions ride in the
        # entry because they depend on the popped frame.
        cacheable = (
            not ec.state_dep and self._no_address_taken(ec.method)
        )
        if not cacheable:
            ec = mk_ec(False)
            value = (
                ec.compile(step.value)
                if step.value is not None else "None"
            )
            w.emit("try:")
            w.push()
            w.emit(f"_ns = machine.pop_frame(state, tid, {value})")
            w.pop()
            w.emit("except UBSignal as _u:")
            w.push()
            w.emit("_ns = _term(state, TERM_UB, _u.reason)")
            w.pop()
            w.emit(
                f"_ap((Transition(tid, {step_ref}, {pt_src}), "
                f"_ns))"
            )
            return
        cache = mk_cache()
        self._emit_hoisted(w, ec)
        key = self._cache_key_src(ec)
        w.emit(f"_e = {cache}.get({key}, _MS)")
        w.emit("if _e is _MS:")
        w.push()
        w.emit("try:")
        w.push()
        if value is not None:
            w.emit(f"_v = {value}")
        w.emit("_f0 = thread.frames[0]")
        w.emit("_rest = thread.frames[1:]")
        w.emit("if not _rest:")
        w.push()
        w.emit(
            "_nt = ThreadState(tid, None, (), thread.store_buffer, "
            "thread.view)"
        )
        w.emit(
            f"_e = (Transition(tid, {step_ref}, {pt_src}), _nt, "
            f"hash((tid, _nt)), False, tid == 1)"
        )
        w.pop()
        w.emit("else:")
        w.push()
        w.emit("_c0 = _rest[0]")
        if value is not None:
            w.emit("if _f0.return_lhs_key is not None and _v is not None:")
            w.push()
            w.emit(
                "_c0 = Frame(_c0.method, _c0.serial, "
                "_c0.locals.set(_f0.return_lhs_key, _v), "
                "_c0.return_pc, _c0.return_lhs_key)"
            )
            w.pop()
        w.emit(
            "_nt = ThreadState(tid, _f0.return_pc, (_c0,) + _rest[1:], "
            "thread.store_buffer, thread.view)"
        )
        w.emit(
            f"_e = (Transition(tid, {step_ref}, {pt_src}), _nt, "
            f"hash((tid, _nt)), "
            f"not machine.pcs[_f0.return_pc].yieldable, False)"
        )
        w.pop()
        w.pop()
        w.emit("except UBSignal as _u:")
        w.push()
        w.emit(
            f"_e = (Transition(tid, {step_ref}, {pt_src}), "
            f"(TERM_UB, _u.reason))"
        )
        w.pop()
        w.emit(f"{cache}[{key}] = _e")
        w.pop()
        w.emit("_p = _e[1]")
        w.emit("if _p.__class__ is ThreadState:")
        w.push()
        for line in self._threads_src("_p", new_hash="_e[2]"):
            w.emit(line)
        w.emit(
            "_ap((_e[0], ProgramState(_nT, state.memory, "
            "state.allocation, state.ghosts, state.log, "
            "_TN if _e[4] else None, state.next_tid, state.next_serial, "
            "tid if _e[3] else None, state.histories)))"
        )
        w.pop()
        w.emit("else:")
        w.push()
        w.emit("_ap((_e[0], _term(state, _p[0], _p[1])))")
        w.pop()

    def _emit_create(self, w, step: CreateThreadStep, ec, step_ref,
                     pt_src, pd_src):
        spec = (
            self._classify_lhs(ec, step.lhs)
            if step.lhs is not None else None
        )
        if spec is not None and spec[0] == "gelem":
            raise _Unsupported("indexed create_thread lhs")
        args = ", ".join(ec.compile(a) for a in step.args)
        w.emit("try:")
        w.push()
        w.emit(
            f"_ns, _nt = machine.spawn_thread(state, {step.method!r}, "
            f"[{args}], {pd_src}, tid)"
        )
        if spec is not None:
            buffered = spec[0] in ("global", "gelem", "memlocal")
            self._emit_write(w, spec, "_nt", buffered)
        w.emit(f"_ns = {self._adv_src(step, '_ns')}")
        w.pop()
        w.emit("except UBSignal as _u:")
        w.push()
        w.emit("_ns = _term(state, TERM_UB, _u.reason)")
        w.pop()
        w.emit(f"_ap((Transition(tid, {step_ref}, {pt_src}), _ns))")

    def _emit_join(self, w, step: JoinStep, ec, step_ref, pt_src):
        target = ec.compile(step.thread)
        w.emit("try:")
        w.push()
        w.emit(f"_t = {target}")
        w.emit("_o = state.threads.get(_t)")
        w.emit("_en = _o is not None and _o.pc is None")
        w.emit("_ub = None")
        w.pop()
        w.emit("except UBSignal as _u:")
        w.push()
        w.emit("_en = True")
        w.emit("_ub = _u.reason")
        w.pop()
        w.emit("if _en:")
        w.push()
        w.emit("if _ub is not None:")
        w.push()
        w.emit("_ns = _term(state, TERM_UB, _ub)")
        w.pop()
        w.emit("else:")
        w.push()
        self._emit_build(w, step)
        # The model's join synchronisation (RA merges the joined
        # thread's view) touches only this thread's view, so it may
        # follow the fused advance.
        w.emit("_ns = mm.on_join(_ns, tid, _t)")
        w.pop()
        w.emit(f"_ap((Transition(tid, {step_ref}, {pt_src}), _ns))")
        w.pop()

    # -- externs ---------------------------------------------------------

    #: Externs whose semantics require an empty store buffer (the x86
    #: LOCK prefix / MFENCE drains it) — from ExternStep.enabled.
    _SB_EXTERNS = frozenset((
        "lock", "unlock", "compare_and_swap", "atomic_exchange",
        "atomic_fetch_add", "fence",
    ))

    def _emit_mutex_loc(self, w, ec, arg: ast.Expr) -> str:
        """Emit code computing ``_mutex_location``'s result for the
        supported ``&var`` / ``&array[i]`` / ``&local`` shapes; raises
        UBSignal exactly where place evaluation would."""
        if not isinstance(arg, ast.AddressOf):
            raise _Unsupported("extern location not an address-of")
        operand = arg.operand
        if isinstance(operand, ast.Var):
            info = ec._local_info(operand.name)
            if info is not None:
                if not info.address_taken:
                    raise _Unsupported("address of register local")
                w.emit(
                    f"_loc = Location(Root('local', {operand.name!r}, "
                    f"thread.frames[0].serial))"
                )
                return "_loc"
            g = ec._global_decl(operand.name)
            if g is None or g.ghost:
                raise _Unsupported("address of ghost/unknown")
            return self.global_loc(operand.name)
        if isinstance(operand, ast.Index) and \
                isinstance(operand.base, ast.Var):
            base = operand.base
            if ec._local_info(base.name) is not None:
                raise _Unsupported("address of local element")
            g = ec._global_decl(base.name)
            if g is None or g.ghost or not isinstance(
                g.var_type, ty.ArrayType
            ):
                raise _Unsupported("address of non-array element")
            t = g.var_type
            if isinstance(t.element, (ty.ArrayType, ty.StructType)):
                raise _Unsupported("nested composite element")
            locs = self.global_leaf_locs(base.name, t.size)
            w.emit(f"_li = {ec.compile(operand.index)}")
            w.emit(f"if not 0 <= _li < {t.size}:")
            w.push()
            w.emit(
                f'raise UBSignal(f"index {{_li}} out of bounds for {t}")'
            )
            w.pop()
            w.emit(f"_loc = {locs}[_li]")
            return "_loc"
        raise _Unsupported("extern location shape")

    def _emit_extern(self, w, step: ExternStep, ec, step_ref, pt_src):
        name = step.name
        lhs_spec = (
            self._classify_lhs(ec, step.lhs)
            if step.lhs is not None else None
        )
        if lhs_spec is not None and lhs_spec[0] == "gelem":
            raise _Unsupported("indexed extern lhs")
        if name in ("lock", "unlock", "initialize_mutex", "fence",
                    "compare_and_swap", "atomic_exchange",
                    "atomic_fetch_add"):
            if lhs_spec is not None and name in (
                "lock", "unlock", "initialize_mutex", "fence"
            ):
                raise _Unsupported(f"{name} with lhs")
        elif name not in ("print_uint64", "print_uint32"):
            raise _Unsupported(f"extern {name}")

        guarded = name in self._SB_EXTERNS
        if guarded:
            w.emit("if not thread.store_buffer:")
            w.push()

        emit_tr = (
            f"_ap((Transition(tid, {step_ref}, {pt_src}), _ns))"
        )

        if name == "lock":
            w.emit("try:")
            w.push()
            loc = self._emit_mutex_loc(w, ec, step.args[0])
            w.emit(f"_en = state.memory.get({loc}, 0) == 0")
            w.emit("_ub = None")
            w.pop()
            w.emit("except UBSignal as _u:")
            w.push()
            w.emit("_en = True")
            w.emit("_ub = _u.reason")
            w.pop()
            w.emit("if _en:")
            w.push()
            w.emit("if _ub is not None:")
            w.push()
            w.emit("_ns = _term(state, TERM_UB, _ub)")
            w.pop()
            w.emit("else:")
            w.push()
            adv = self._adv_src(
                step, f"mm.atomic_update(state, tid, {loc}, tid)"
            )
            w.emit(f"_ns = {adv}")
            w.pop()
            w.emit(emit_tr)
            w.pop()
        elif name in ("unlock", "initialize_mutex"):
            w.emit("try:")
            w.push()
            loc = self._emit_mutex_loc(w, ec, step.args[0])
            if name == "unlock":
                w.emit(f"if state.memory.get({loc}) != tid:")
                w.push()
                w.emit('raise UBSignal("unlock of a mutex not held by '
                       'this thread")')
                w.pop()
            adv = self._adv_src(
                step, f"mm.atomic_update(state, tid, {loc}, 0)"
            )
            w.emit(f"_ns = {adv}")
            w.pop()
            w.emit("except UBSignal as _u:")
            w.push()
            w.emit("_ns = _term(state, TERM_UB, _u.reason)")
            w.pop()
            w.emit(emit_tr)
        elif name == "fence":
            adv = self._adv_src(step, "mm.fence(state, tid)")
            w.emit(f"_ns = {adv}")
            w.emit(emit_tr)
        elif name in ("print_uint64", "print_uint32"):
            arg = ec.compile(step.args[0])
            w.emit("try:")
            w.push()
            w.emit(f"_v = {arg}")
            w.emit("_ns = state.append_log(_v)")
            if lhs_spec is not None:
                buffered = lhs_spec[0] in ("global", "gelem", "memlocal")
                self._emit_write(w, lhs_spec, "None", buffered)
            w.emit(f"_ns = {self._adv_src(step, '_ns')}")
            w.pop()
            w.emit("except UBSignal as _u:")
            w.push()
            w.emit("_ns = _term(state, TERM_UB, _u.reason)")
            w.pop()
            w.emit(emit_tr)
        else:  # compare_and_swap / atomic_exchange / atomic_fetch_add
            w.emit("try:")
            w.push()
            loc = self._emit_mutex_loc(w, ec, step.args[0])
            if name == "compare_and_swap":
                w.emit(f"_e = {ec.compile(step.args[1])}")
                w.emit(f"_d = {ec.compile(step.args[2])}")
                w.emit(f"_cur = state.memory.get({loc})")
                w.emit("if _cur is None:")
                w.push()
                w.emit('raise UBSignal("CAS on unmapped location")')
                w.pop()
                w.emit("if _cur == _e:")
                w.push()
                w.emit(f"_ns = mm.atomic_update(state, tid, {loc}, _d)")
                w.emit("_res = True")
                w.pop()
                w.emit("else:")
                w.push()
                w.emit(f"_ns = mm.atomic_acquire(state, tid, {loc})")
                w.emit("_res = False")
                w.pop()
            elif name == "atomic_exchange":
                w.emit(f"_x = {ec.compile(step.args[1])}")
                w.emit(f"_cur = state.memory.get({loc})")
                w.emit("if _cur is None:")
                w.push()
                w.emit('raise UBSignal("exchange on unmapped location")')
                w.pop()
                w.emit(f"_ns = mm.atomic_update(state, tid, {loc}, _x)")
                w.emit("_res = _cur")
            else:  # atomic_fetch_add
                w.emit(f"_x = {ec.compile(step.args[1])}")
                w.emit(f"_cur = state.memory.get({loc})")
                w.emit("if _cur is None:")
                w.push()
                w.emit('raise UBSignal("fetch_add on unmapped location")')
                w.pop()
                w.emit(
                    f"_ns = mm.atomic_update(state, tid, {loc}, "
                    f"(_cur + _x) & 0xffffffffffffffff)"
                )
                w.emit("_res = _cur")
            if lhs_spec is not None:
                buffered = lhs_spec[0] in ("global", "gelem", "memlocal")
                self._emit_write(w, lhs_spec, "_res", buffered)
            w.emit(f"_ns = {self._adv_src(step, '_ns')}")
            w.pop()
            w.emit("except UBSignal as _u:")
            w.push()
            w.emit("_ns = _term(state, TERM_UB, _u.reason)")
            w.pop()
            w.emit(emit_tr)
        if guarded:
            w.pop()


# ---------------------------------------------------------------------------
# Fingerprinting and the on-disk source cache


def _ast_sig(node: Any) -> Any:
    """Deterministic structural signature of an AST fragment, including
    the checked types that drive wrap/overflow codegen."""
    if isinstance(node, ast.Expr):
        sig: list[Any] = [
            type(node).__name__,
            str(node.type) if node.type is not None else "?",
        ]
        for name in node._fields:
            if name in ("loc", "type"):
                continue
            sig.append(_ast_sig(getattr(node, name)))
        return sig
    if isinstance(node, (list, tuple)):
        return [_ast_sig(item) for item in node]
    if isinstance(node, ty.Type):
        return str(node)
    if node is None or isinstance(node, (str, int, bool)):
        return node
    if not isinstance(node, Record):  # records include machine Steps
        return repr(node)
    sig = [type(node).__name__]
    for name in node._fields:
        if name != "loc":
            sig.append(_ast_sig(getattr(node, name)))
    return sig


def machine_fingerprint(machine: StateMachine) -> str:
    """The on-disk cache key: level fingerprint, memory model and the
    interpreter's bytecode magic number (the entry holds a code object,
    so another interpreter's entry must miss)."""
    ctx = machine.ctx
    pcs = [
        [pc, info.method, bool(info.yieldable)]
        for pc, info in sorted(machine.pcs.items())
    ]
    steps = [
        [pc, [_ast_sig(step) for step in steps_at]]
        for pc, steps_at in sorted(machine.steps_by_pc.items())
    ]
    globals_sig = [
        [name, bool(g.ghost), str(g.var_type)]
        for name, g in sorted(ctx.globals.items())
    ]
    locals_sig = [
        [
            method,
            [
                [name, bool(info.address_taken), bool(info.is_param),
                 str(info.type)]
                for name, info in sorted(mctx.locals.items())
            ],
        ]
        for method, mctx in sorted(ctx.method_contexts.items())
    ]
    extra = [
        sorted(machine.method_entry.items()),
        sorted((m, list(names)) for m, names in
               machine.memory_locals.items()),
        sorted(
            (m, [[n, str(t)] for n, t in pairs])
            for m, pairs in machine.newframe_locals.items()
        ),
    ]
    return structural_hash(
        "stepc", _STEPC_FORMAT, MAGIC_NUMBER.hex(), code_version(),
        machine.level_name, machine.memmodel.name, pcs, steps, globals_sig,
        locals_sig, extra,
    )


def _cache_dir() -> Path | None:
    env = os.environ.get("ARMADA_STEPC_CACHE")
    if env is not None:
        if env.lower() in ("", "0", "off", "none"):
            return None
        return Path(env)
    home = os.environ.get("HOME")
    if not home:
        return None
    return Path(home) / ".cache" / "armada" / "stepc"


def _cache_load(key: str) -> tuple[str, CodeType] | None:
    """The cached ``(source, code)`` pair for *key*, or ``None`` on a
    miss or an unreadable entry."""
    directory = _cache_dir()
    if directory is None:
        return None
    try:
        entry = marshal.loads((directory / f"{key}.marshal").read_bytes())
    except (OSError, EOFError, ValueError, TypeError):
        return None
    if (
        type(entry) is tuple and len(entry) == 2
        and type(entry[0]) is str and type(entry[1]) is CodeType
    ):
        return entry
    return None


def _cache_store(key: str, source: str, code: CodeType) -> None:
    directory = _cache_dir()
    if directory is None:
        return
    tmp = directory / f".{key}.{os.getpid()}.tmp"
    try:
        directory.mkdir(parents=True, exist_ok=True)
        tmp.write_bytes(marshal.dumps((source, code)))
        tmp.replace(directory / f"{key}.marshal")
    except OSError:
        with contextlib.suppress(OSError):
            tmp.unlink(missing_ok=True)


# ---------------------------------------------------------------------------
# Entry points


class CompiledStepper:
    """A compiled ``enabled_and_next`` plus its provenance."""

    __slots__ = (
        "machine", "fn", "source", "cache_key", "cache_hit",
        "compiled_steps", "fallback_steps",
    )

    def __init__(self, machine, fn, source, cache_key, cache_hit,
                 compiled_steps, fallback_steps):
        self.machine = machine
        self.fn = fn
        self.source = source
        self.cache_key = cache_key
        self.cache_hit = cache_hit
        self.compiled_steps = compiled_steps
        self.fallback_steps = fallback_steps

    def enabled_and_next(
        self, state: ProgramState
    ) -> list[tuple[Transition, ProgramState]]:
        return self.fn(state)

    __call__ = enabled_and_next


def compile_stepper(machine: StateMachine) -> CompiledStepper:
    """Generate and compile (or load from the bytecode cache), then bind
    the specialized step relation for *machine*.  Raises on machines the
    specializer cannot handle at all; per-step gaps fall back inline."""
    key = machine_fingerprint(machine)
    fn = None
    entry = _cache_load(key)
    if entry is not None:
        source, code = entry
        try:
            fn = _bind(code, machine)
        except Exception:
            pass  # A stale or corrupt cached entry: regenerate below.
    cache_hit = fn is not None
    if cache_hit:
        # Recover the counters from the fallback markers in the source.
        fallback_steps = source.count("_interp(machine, ")
        compiled_steps = machine.step_count() - fallback_steps
    else:
        gen = _Gen(machine)
        source = gen.generate(key)
        code = compile(
            source, f"<armada-stepc:{machine.level_name}:"
            f"{machine.memmodel.name}>", "exec"
        )
        fn = _bind(code, machine)
        _cache_store(key, source, code)
        compiled_steps = gen.compiled_steps
        fallback_steps = gen.fallback_steps
    return CompiledStepper(
        machine, fn, source, key, cache_hit, compiled_steps, fallback_steps,
    )


def _bind(code: CodeType, machine: StateMachine):
    """Run the compiled module and bind its ``build`` to *machine*."""
    namespace = dict(_NAMESPACE_BASE)
    exec(code, namespace)
    return namespace["build"](machine)


def _domains_token(domains) -> tuple:
    try:
        return (
            tuple(domains.bool_values),
            tuple(domains.int_values),
            tuple(domains.newframe_int_values),
            tuple(domains.overrides.items()),
        )
    except Exception:
        return (object(),)  # unknown shape: never matches, always rebuild


def stepper_for(machine: StateMachine) -> CompiledStepper | None:
    """The compiled stepper for *machine*, or ``None`` when codegen
    fails and the whole machine must stay interpreted.

    Memoized on the machine, keyed by the value domains: the proof
    engine replaces ``machine.domains`` after translation, and the
    parameter tuples bound into the compiled function depend on them.
    """
    token = _domains_token(getattr(machine, "domains", None))
    cached = machine.__dict__.get("_stepc_cache")
    if cached is not None and cached[0] == token:
        return cached[1]
    try:
        stepper = compile_stepper(machine)
    except Exception:
        if OBS.enabled:
            OBS.count("stepc.codegen_failed")
        stepper = None
    machine.__dict__["_stepc_cache"] = (token, stepper)
    return stepper


def successors_for(machine: StateMachine, compiled: bool = True):
    """The successor function of *machine*: ``state ->
    [(Transition, successor), ...]`` in the interpreter's order.

    The one stepping entry point for every state-space search: the
    compiled stepper's ``fn`` when *compiled* is on and
    :func:`stepper_for` covers the machine, otherwise the interpreted
    ``enabled_transitions`` + ``next_state`` enumeration (bit-identical
    lists either way)."""
    stepper = stepper_for(machine) if compiled else None
    if stepper is not None:
        return stepper.fn

    def interpreted(state: ProgramState) -> list:
        return [
            (transition, machine.next_state(state, transition))
            for transition in machine.enabled_transitions(state)
        ]

    return interpreted
