"""Python execution back end for core Armada.

This is the reproduction's stand-in for the paper's compilation paths
(Figure 12, see DESIGN.md).  Three modes:

* ``mode="sc"`` — the *GCC analogue*: aggressive direct compilation;
  globals become module-level Python variables accessed natively.
* ``mode="conservative"`` — the *CompCertTSO analogue*: correct but
  less optimized code, the way a 2013-era verified compiler emits it.
  Every shared access goes through an accessor with no caching or
  expression fusion (volatile-style), every arithmetic result is
  re-normalized to its machine width, and fences compile to real calls.
  On x86 the hardware provides TSO natively, so — exactly as with
  CompCertTSO — no run-time buffering is needed; the cost is purely
  less aggressive code generation.
* ``mode="tso"`` — a *semantics-testing* mode (not a performance
  analogue): every shared write goes through an explicit per-thread
  FIFO store buffer and every shared read searches it, with drains at
  fences, atomics, and buffer pressure.  Useful for exercising TSO
  behaviours from compiled code in tests and examples.

The backend emits a self-contained Python module source and can execute
it with real ``threading`` threads.  Only the core-Armada subset used
by performance code is supported (fixed-width ints, arrays, pointers to
scalar globals for the mutex/atomic externs, threads).
"""

from __future__ import annotations

from typing import Any

from repro.errors import CompileError
from repro.lang import asts as ast
from repro.lang import types as ty
from repro.lang.core_check import check_core
from repro.lang.resolver import LevelContext
from repro.record import Record

_RUNTIME = '''\
import threading

class _Ref:
    """A pointer to a named global scalar (for extern calls)."""
    __slots__ = ("name",)
    def __init__(self, name):
        self.name = name

class _Runtime:
    def __init__(self):
        self.log = []
        self.log_lock = threading.Lock()
        self.locks = {}
        self.threads = []
        self.cas_lock = threading.Lock()

RT = _Runtime()

def initialize_mutex(ref):
    RT.locks[ref.name] = threading.Lock()

def lock(ref):
    RT.locks[ref.name].acquire()

def unlock(ref):
    RT.locks[ref.name].release()

def compare_and_swap(ref, expected, desired):
    with RT.cas_lock:
        g = globals()
        if g[ref.name] == expected:
            g[ref.name] = desired
            return True
        return False

def atomic_exchange(ref, value):
    with RT.cas_lock:
        g = globals()
        old = g[ref.name]
        g[ref.name] = value
        return old

def atomic_fetch_add(ref, delta):
    with RT.cas_lock:
        g = globals()
        old = g[ref.name]
        g[ref.name] = (old + delta) & 0xFFFFFFFFFFFFFFFF
        return old

def print_uint64(n):
    with RT.log_lock:
        RT.log.append(n)

print_uint32 = print_uint64

def _spawn(fn, args):
    t = threading.Thread(target=fn, args=args)
    RT.threads.append(t)
    t.start()
    return len(RT.threads) - 1

def _join(handle):
    RT.threads[handle].join()
'''

_SC_RUNTIME = '''\

def fence():
    pass
'''

_CONSERVATIVE_RUNTIME = '''\

def fence():
    # The fence survives as a real (non-inlined) call: CompCertTSO
    # neither removes nor inlines the ClightTSO barrier.
    pass
'''

_TSO_RUNTIME = '''\

_TLS = threading.local()
_SB_CAPACITY = 8

def _sb():
    buf = getattr(_TLS, "buf", None)
    if buf is None:
        buf = []
        _TLS.buf = buf
    return buf

def _sb_write(key, value):
    """Buffered x86-TSO store: enqueue, draining under pressure."""
    buf = _sb()
    buf.append((key, value))
    if len(buf) >= _SB_CAPACITY:
        _drain_one()

def _sb_write_elem(name, index, value):
    _sb_write((name, index), value)

def _sb_read(key):
    """Local view: youngest buffered store wins, else global memory."""
    buf = _sb()
    for i in range(len(buf) - 1, -1, -1):
        if buf[i][0] == key:
            return buf[i][1]
    g = globals()
    if isinstance(key, tuple):
        return g[key[0]][key[1]]
    return g[key]

def _drain_one():
    buf = _sb()
    key, value = buf.pop(0)
    g = globals()
    if isinstance(key, tuple):
        g[key[0]][key[1]] = value
    else:
        g[key] = value

def fence():
    buf = _sb()
    while buf:
        _drain_one()
'''

_MODE_RUNTIMES = {
    "sc": _SC_RUNTIME,
    "conservative": _CONSERVATIVE_RUNTIME,
    "tso": _TSO_RUNTIME,
}

_MASKS = {8: 0xFF, 16: 0xFFFF, 32: 0xFFFFFFFF, 64: 0xFFFFFFFFFFFFFFFF}


class CompiledProgram(Record):
    """A compiled Armada program ready to execute."""

    source: str
    level_name: str
    mode: str

    def run(self) -> list[int]:
        """Execute ``main`` (with real threads); returns the console
        log."""
        namespace = self.load()
        namespace["main"]()
        return list(namespace["RT"].log)

    def load(self) -> dict[str, Any]:
        """Execute the module body only, returning its namespace (for
        benchmarks that drive individual methods)."""
        namespace: dict[str, Any] = {}
        exec(compile(self.source, f"<armada:{self.level_name}>", "exec"),
             namespace)
        return namespace


class PyBackend:
    def __init__(self, ctx: LevelContext, mode: str = "sc") -> None:
        if mode not in _MODE_RUNTIMES:
            raise CompileError(f"unknown backend mode {mode!r}")
        self.ctx = ctx
        self.mode = mode
        self._lines: list[str] = []
        self._indent = 0

    # ------------------------------------------------------------------

    def compile(self) -> CompiledProgram:
        check_core(self.ctx)
        self._check_shadowing()
        self._lines = [_RUNTIME, _MODE_RUNTIMES[self.mode]]
        self._emit_globals()
        for method in self.ctx.level.methods:
            if method.body is not None and not method.is_extern:
                self._emit_method(method)
        return CompiledProgram(
            "\n".join(self._lines) + "\n", self.ctx.level.name, self.mode
        )

    def _check_shadowing(self) -> None:
        global_names = set(self.ctx.globals)
        for method_name, mctx in self.ctx.method_contexts.items():
            clash = global_names & set(mctx.locals)
            if clash:
                raise CompileError(
                    f"python backend: local(s) {sorted(clash)} in "
                    f"{method_name} shadow globals; rename them"
                )

    # ------------------------------------------------------------------

    def _emit(self, line: str = "") -> None:
        self._lines.append("    " * self._indent + line)

    def _emit_globals(self) -> None:
        for g in self.ctx.level.globals:
            self._lines.append(f"{g.name} = {self._default(g)}")

    def _default(self, g: ast.GlobalVarDecl) -> str:
        t = g.var_type
        if isinstance(t, ty.ArrayType):
            return f"[0] * {t.size}"
        if g.init is not None and isinstance(g.init, ast.IntLit):
            return str(g.init.value)
        return "0"

    # ------------------------------------------------------------------

    def _emit_method(self, method: ast.MethodDecl) -> None:
        params = ", ".join(p.name for p in method.params)
        self._emit("")
        self._emit(f"def {method.name}({params}):")
        self._indent += 1
        assert method.body is not None
        if self.mode in ("sc", "conservative"):
            written = self._written_global_scalars(method.body)
            if written:
                self._emit(f"global {', '.join(sorted(written))}")
        if not method.body.stmts:
            self._emit("pass")
        for stmt in method.body.stmts:
            self._stmt(stmt)
        if self.mode == "tso":
            # Thread exit drains the store buffer (the hardware does
            # eventually; joining threads must observe the writes).
            self._emit("fence()")
        self._indent -= 1

    def _written_global_scalars(self, block: ast.Block) -> set[str]:
        written: set[str] = set()
        for stmt in ast.walk_stmts(block):
            if isinstance(stmt, ast.AssignStmt):
                for lhs in stmt.lhss:
                    if isinstance(lhs, ast.Var) and lhs.name in \
                            self.ctx.globals:
                        written.add(lhs.name)
        return written

    def _stmt(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.Block):
            for inner in stmt.stmts:
                self._stmt(inner)
        elif isinstance(stmt, ast.VarDeclStmt):
            if stmt.init is None:
                self._emit(f"{stmt.name} = 0")
            else:
                self._assign_one(ast.Var(stmt.name), stmt.init)
        elif isinstance(stmt, ast.AssignStmt):
            if not stmt.lhss:
                rhs = stmt.rhss[0]
                assert isinstance(rhs, ast.CallRhs)
                if rhs.method == "fence" and self.mode == "sc":
                    # A compiler barrier costs zero instructions under
                    # an aggressive compiler (the GCC analogue).
                    return
                self._emit(self._call_text(rhs))
                return
            for lhs, rhs in zip(stmt.lhss, stmt.rhss):
                self._assign_one(lhs, rhs)
        elif isinstance(stmt, ast.IfStmt):
            self._emit(f"if {self._expr(stmt.cond)}:")
            self._block(stmt.then)
            if stmt.els is not None:
                self._emit("else:")
                self._block(stmt.els)
        elif isinstance(stmt, ast.WhileStmt):
            self._emit(f"while {self._expr(stmt.cond)}:")
            self._block(stmt.body)
        elif isinstance(stmt, ast.BreakStmt):
            self._emit("break")
        elif isinstance(stmt, ast.ContinueStmt):
            self._emit("continue")
        elif isinstance(stmt, ast.ReturnStmt):
            if self.mode == "tso":
                self._emit("fence()")
            if stmt.value is not None:
                self._emit(f"return {self._expr(stmt.value)}")
            else:
                self._emit("return")
        elif isinstance(stmt, ast.AssertStmt):
            self._emit(f"assert {self._expr(stmt.cond)}")
        elif isinstance(stmt, ast.JoinStmt):
            self._emit(f"_join({self._expr(stmt.thread)})")
        elif isinstance(stmt, ast.LabelStmt):
            self._stmt(stmt.stmt)
        else:
            raise CompileError(
                f"python backend cannot compile {type(stmt).__name__}",
                stmt.loc,
            )

    def _block(self, block: ast.Block) -> None:
        self._indent += 1
        if not block.stmts:
            self._emit("pass")
        for inner in block.stmts:
            self._stmt(inner)
        self._indent -= 1

    # ------------------------------------------------------------------

    def _assign_one(self, lhs: ast.Expr, rhs: ast.Rhs) -> None:
        if isinstance(rhs, ast.ExprRhs):
            value = self._expr(rhs.expr)
            value = self._masked(lhs.type, value, rhs.expr)
            self._emit_store(lhs, value)
        elif isinstance(rhs, ast.CallRhs):
            self._emit_store(lhs, self._call_text(rhs))
        elif isinstance(rhs, ast.CreateThreadRhs):
            args = ", ".join(self._expr(a) for a in rhs.args)
            trailing = "," if rhs.args else ""
            self._emit_store(
                lhs, f"_spawn({rhs.method}, ({args}{trailing}))"
            )
        else:
            raise CompileError(
                "python backend does not support heap allocation",
                rhs.loc,
            )

    def _call_text(self, rhs: ast.CallRhs) -> str:
        args = ", ".join(self._expr(a) for a in rhs.args)
        return f"{rhs.method}({args})"

    def _emit_store(self, lhs: ast.Expr, value: str) -> None:
        if isinstance(lhs, ast.Var):
            if lhs.name in self.ctx.globals:
                if self.mode == "tso":
                    self._emit(f"_sb_write({lhs.name!r}, {value})")
                else:
                    self._emit(f"{lhs.name} = {value}")
            else:
                self._emit(f"{lhs.name} = {value}")
            return
        if isinstance(lhs, ast.Index) and isinstance(lhs.base, ast.Var) \
                and lhs.base.name in self.ctx.globals:
            index = self._expr(lhs.index)
            if self.mode == "tso":
                self._emit(
                    f"_sb_write_elem({lhs.base.name!r}, {index}, {value})"
                )
            else:
                self._emit(f"{lhs.base.name}[{index}] = {value}")
            return
        raise CompileError("unsupported assignment target", lhs.loc)

    def _masked(
        self, t: ty.Type | None, value: str, expr: ast.Expr | None = None
    ) -> str:
        if isinstance(t, ty.IntType) and not t.signed:
            if self.mode == "conservative":
                # No overflow-analysis elision: always re-normalize.
                return f"(({value}) & {hex(_MASKS[t.bits])})"
            if self.mode == "sc" and isinstance(expr, ast.Binary) \
                    and expr.op in ("%", ">>", "&"):
                # Already bounded: an aggressive compiler elides the wrap.
                return value
            if any(op in value for op in ("+", "-", "*", "<<")):
                return f"(({value}) & {hex(_MASKS[t.bits])})"
        return value

    # ------------------------------------------------------------------

    def _expr(self, expr: ast.Expr) -> str:
        if isinstance(expr, ast.IntLit):
            return str(expr.value)
        if isinstance(expr, ast.BoolLit):
            return "True" if expr.value else "False"
        if isinstance(expr, ast.Var):
            if expr.name in self.ctx.globals and self.mode == "tso":
                return f"_sb_read({expr.name!r})"
            return expr.name
        if isinstance(expr, ast.Unary):
            ops = {"!": "not ", "-": "-", "~": "~"}
            return f"({ops[expr.op]}{self._expr(expr.operand)})"
        if isinstance(expr, ast.Binary):
            return self._binary(expr)
        if isinstance(expr, ast.Conditional):
            return (
                f"({self._expr(expr.then)} if {self._expr(expr.cond)} "
                f"else {self._expr(expr.els)})"
            )
        if isinstance(expr, ast.AddressOf):
            target = expr.operand
            if isinstance(target, ast.Var) and target.name in \
                    self.ctx.globals:
                return f"_Ref({target.name!r})"
            raise CompileError(
                "python backend only supports pointers to globals",
                expr.loc,
            )
        if isinstance(expr, ast.Index):
            if isinstance(expr.base, ast.Var) and expr.base.name in \
                    self.ctx.globals:
                index = self._expr(expr.index)
                if self.mode == "tso":
                    return f"_sb_read(({expr.base.name!r}, {index}))"
                return f"{expr.base.name}[{index}]"
            return f"{self._expr(expr.base)}[{self._expr(expr.index)}]"
        if isinstance(expr, ast.Call):
            args = ", ".join(self._expr(a) for a in expr.args)
            return f"{expr.func}({args})"
        raise CompileError(
            f"python backend cannot compile {type(expr).__name__}",
            expr.loc,
        )

    def _binary(self, expr: ast.Binary) -> str:
        ops = {"&&": "and", "||": "or"}
        if expr.op == "==>":
            return (
                f"((not {self._expr(expr.left)}) or "
                f"{self._expr(expr.right)})"
            )
        if expr.op == "/" and expr.type is not None \
                and expr.type.is_integer():
            return f"({self._expr(expr.left)} // {self._expr(expr.right)})"
        op = ops.get(expr.op, expr.op)
        text = f"({self._expr(expr.left)} {op} {self._expr(expr.right)})"
        if isinstance(expr.type, ty.IntType) and not expr.type.signed \
                and expr.op in ("+", "-", "*", "<<"):
            if self.mode in ("sc", "conservative"):
                # Intermediates stay exact (machine registers hold the
                # full value); the wrap happens at the store boundary.
                return text
            return f"({text} & {hex(_MASKS[expr.type.bits])})"
        return text


def compile_to_python(
    ctx: LevelContext, mode: str = "sc"
) -> CompiledProgram:
    """Compile a core Armada level to an executable Python module."""
    return PyBackend(ctx, mode).compile()
