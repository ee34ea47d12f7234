"""Translation of Armada levels into program-specific state machines.

Each method body becomes a control-flow graph of :class:`Step` objects
over an enumerated set of PC values named ``method#index`` (§3.2.2).
Structured control flow is lowered with a PC-aliasing pass (a union-find
over PC names) so that empty statements, block ends, and ``break``/
``continue`` produce no spurious no-op steps.

Atomicity regions (``atomic`` and ``explicit_yield`` blocks, §3.1.2)
are encoded in the PCs themselves: a PC inside such a region is marked
non-yieldable, except PCs marked by a ``yield`` statement.
"""

from __future__ import annotations

from repro.errors import TranslationError
from repro.lang import asts as ast
from repro.lang import types as ty
from repro.lang.prelude import PRELUDE_NAMES
from repro.lang.resolver import LevelContext, LocalInfo
from repro.machine.program import PcInfo, StateMachine
from repro.machine.steps import (
    AssertStep,
    AssignStep,
    AssumeStep,
    BranchStep,
    CallStep,
    CreateThreadStep,
    DeallocStep,
    ExternSpecStep,
    ExternStep,
    JoinStep,
    MallocStep,
    ReturnStep,
    SomehowStep,
    Step,
)
from repro.record import Record


class _LoopTargets(Record):
    break_pc: str
    continue_pc: str


class MethodTranslator:
    """Translates one method body into steps of the machine."""

    def __init__(self, machine: StateMachine, method: ast.MethodDecl) -> None:
        self.machine = machine
        self.method = method
        self.ctx: LevelContext = machine.ctx
        self.counter = 0
        self.alias: dict[str, str] = {}
        self.steps: list[Step] = []
        self.pc_infos: dict[str, PcInfo] = {}
        self.loop_stack: list[_LoopTargets] = []
        self.yieldable_default = True
        self.pending_label: str | None = None
        self.temp_counter = 0
        self.explicit_yields: set[str] = set()

    # ------------------------------------------------------------------

    def new_pc(self, kind: str = "", loc=None) -> str:
        pc = f"{self.method.name}#{self.counter}"
        self.counter += 1
        self.pc_infos[pc] = PcInfo(
            pc=pc,
            method=self.method.name,
            index=self.counter - 1,
            yieldable=self.yieldable_default,
            loc=loc,
            kind=kind,
        )
        return pc

    def resolve(self, pc: str | None) -> str | None:
        while pc in self.alias:
            pc = self.alias[pc]
        return pc

    def emit(self, step: Step) -> None:
        if self.pending_label is not None:
            step.label = self.pending_label
            self.pc_infos[step.pc].label = self.pending_label
            self.pending_label = None
        self.steps.append(step)

    # ------------------------------------------------------------------

    def translate(self) -> str:
        """Translate the method, returning its entry PC."""
        entry = self.new_pc("entry", self.method.loc)
        body = self.method.body
        assert body is not None
        exit_pc = self.translate_block(body, entry)
        # Implicit return at the end of the body.
        self.pc_infos[exit_pc].kind = "return"
        self.emit(ReturnStep(exit_pc, None, loc=self.method.loc))
        self._finalize()
        return self.resolve(entry)  # type: ignore[return-value]

    def _finalize(self) -> None:
        """Resolve PC aliases and install steps into the machine."""
        # Merge label metadata across alias chains, and propagate
        # explicit yield marks (a `yield;` at the end of a block marks
        # whatever PC the block's exit resolves to).
        for pc, info in self.pc_infos.items():
            target = self.resolve(pc)
            if target != pc and target in self.pc_infos:
                target_info = self.pc_infos[target]
                if info.label and not target_info.label:
                    target_info.label = info.label
        for pc in self.explicit_yields:
            target = self.resolve(pc)
            if target in self.pc_infos:
                self.pc_infos[target].yieldable = True
        live_pcs = set()
        for step in self.steps:
            step.pc = self.resolve(step.pc)
            step.target = self.resolve(step.target)
            live_pcs.add(step.pc)
            if step.target is not None:
                live_pcs.add(step.target)
        for step in self.steps:
            self.machine.steps_by_pc.setdefault(step.pc, []).append(step)
        for pc, info in self.pc_infos.items():
            if pc in live_pcs:
                self.machine.pcs[pc] = info

    # ------------------------------------------------------------------

    def translate_block(self, block: ast.Block, entry: str) -> str:
        current = entry
        for stmt in block.stmts:
            current = self.translate_stmt(stmt, current)
        return current

    def translate_stmt(self, stmt: ast.Stmt, entry: str) -> str:
        """Translate *stmt* with control entering at *entry*; returns the
        PC where control continues afterwards."""
        if isinstance(stmt, ast.Block):
            return self.translate_block(stmt, entry)
        if isinstance(stmt, ast.VarDeclStmt):
            return self._translate_vardecl(stmt, entry)
        if isinstance(stmt, ast.AssignStmt):
            return self._translate_assign(stmt, entry)
        if isinstance(stmt, ast.IfStmt):
            return self._translate_if(stmt, entry)
        if isinstance(stmt, ast.WhileStmt):
            return self._translate_while(stmt, entry)
        if isinstance(stmt, ast.BreakStmt):
            if not self.loop_stack:
                raise TranslationError("break outside loop", stmt.loc)
            self.alias[entry] = self.loop_stack[-1].break_pc
            return self.new_pc("unreachable", stmt.loc)
        if isinstance(stmt, ast.ContinueStmt):
            if not self.loop_stack:
                raise TranslationError("continue outside loop", stmt.loc)
            self.alias[entry] = self.loop_stack[-1].continue_pc
            return self.new_pc("unreachable", stmt.loc)
        if isinstance(stmt, ast.ReturnStmt):
            self.pc_infos[entry].kind = "return"
            self.emit(ReturnStep(entry, None, value=stmt.value, loc=stmt.loc))
            return self.new_pc("unreachable", stmt.loc)
        if isinstance(stmt, ast.AssertStmt):
            nxt = self.new_pc()
            self.pc_infos[entry].kind = "assert"
            self.emit(AssertStep(entry, nxt, cond=stmt.cond, loc=stmt.loc))
            return nxt
        if isinstance(stmt, ast.AssumeStmt):
            nxt = self.new_pc()
            self.pc_infos[entry].kind = "assume"
            self.emit(AssumeStep(entry, nxt, cond=stmt.cond, loc=stmt.loc))
            return nxt
        if isinstance(stmt, ast.SomehowStmt):
            nxt = self.new_pc()
            self.pc_infos[entry].kind = "somehow"
            self.emit(SomehowStep(entry, nxt, spec=stmt.spec, loc=stmt.loc))
            return nxt
        if isinstance(stmt, ast.DeallocStmt):
            nxt = self.new_pc()
            self.pc_infos[entry].kind = "dealloc"
            self.emit(DeallocStep(entry, nxt, ptr=stmt.ptr, loc=stmt.loc))
            return nxt
        if isinstance(stmt, ast.JoinStmt):
            nxt = self.new_pc()
            self.pc_infos[entry].kind = "join"
            self.emit(JoinStep(entry, nxt, thread=stmt.thread, loc=stmt.loc))
            return nxt
        if isinstance(stmt, ast.LabelStmt):
            self.pending_label = stmt.label
            self.pc_infos[entry].label = stmt.label
            return self.translate_stmt(stmt.stmt, entry)
        if isinstance(stmt, ast.YieldStmt):
            self.pc_infos[entry].yieldable = True
            self.explicit_yields.add(entry)
            return entry
        if isinstance(stmt, (ast.ExplicitYieldBlock, ast.AtomicBlock)):
            return self._translate_atomic_region(stmt, entry)
        raise TranslationError(
            f"cannot translate {type(stmt).__name__}", stmt.loc
        )

    # ------------------------------------------------------------------

    def _translate_vardecl(self, stmt: ast.VarDeclStmt, entry: str) -> str:
        if stmt.init is None:
            # Value supplied by the newframe parameters at call time.
            return entry
        lhs = ast.Var(stmt.name, loc=stmt.loc)
        lhs.type = stmt.var_type
        assign = ast.AssignStmt([lhs], [stmt.init], loc=stmt.loc)
        return self._translate_assign(assign, entry)

    def _translate_assign(self, stmt: ast.AssignStmt, entry: str) -> str:
        rhss = stmt.rhss
        # Special RHS forms must be the sole RHS of the statement.
        if len(rhss) == 1 and not isinstance(rhss[0], ast.ExprRhs):
            return self._translate_special_assign(stmt, rhss[0], entry)
        exprs: list[ast.Expr] = []
        for rhs in rhss:
            if not isinstance(rhs, ast.ExprRhs):
                raise TranslationError(
                    "calls and allocation must be the only right-hand side",
                    stmt.loc,
                )
            exprs.append(rhs.expr)
        nxt = self.new_pc()
        self.pc_infos[entry].kind = "assign"
        ghost_only = bool(stmt.lhss) and all(
            self._is_ghost_lhs(e) for e in stmt.lhss
        )
        self.emit(
            AssignStep(
                entry,
                nxt,
                lhss=stmt.lhss,
                rhss=exprs,
                tso_bypass=stmt.tso_bypass,
                ghost_only=ghost_only,
                loc=stmt.loc,
            )
        )
        return nxt

    def _is_ghost_lhs(self, expr: ast.Expr) -> bool:
        if isinstance(expr, ast.Var):
            g = self.ctx.globals.get(expr.name)
            if g is not None:
                return g.ghost
            info = self.ctx.local(self.method.name, expr.name)
            return info is not None and info.ghost
        return False

    def _translate_special_assign(
        self, stmt: ast.AssignStmt, rhs: ast.Rhs, entry: str
    ) -> str:
        lhs = stmt.lhss[0] if stmt.lhss else None
        if isinstance(rhs, ast.MallocRhs):
            nxt = self.new_pc()
            self.pc_infos[entry].kind = "malloc"
            self.emit(
                MallocStep(entry, nxt, lhs=lhs, alloc_type=rhs.alloc_type,
                           loc=stmt.loc)
            )
            return nxt
        if isinstance(rhs, ast.CallocRhs):
            nxt = self.new_pc()
            self.pc_infos[entry].kind = "malloc"
            self.emit(
                MallocStep(
                    entry, nxt, lhs=lhs, alloc_type=rhs.alloc_type,
                    count=rhs.count, loc=stmt.loc,
                )
            )
            return nxt
        if isinstance(rhs, ast.CreateThreadRhs):
            nxt = self.new_pc()
            self.pc_infos[entry].kind = "create_thread"
            self.emit(
                CreateThreadStep(
                    entry, nxt, method=rhs.method, args=rhs.args, lhs=lhs,
                    loc=stmt.loc,
                )
            )
            return nxt
        assert isinstance(rhs, ast.CallRhs)
        return self._translate_call(stmt, rhs, lhs, entry)

    def _translate_call(
        self,
        stmt: ast.AssignStmt,
        rhs: ast.CallRhs,
        lhs: ast.Expr | None,
        entry: str,
    ) -> str:
        decl = self.ctx.methods.get(rhs.method)
        if decl is None:
            raise TranslationError(f"call to unknown method {rhs.method}",
                                   stmt.loc)
        if decl.is_extern and decl.body is None:
            if rhs.method in PRELUDE_NAMES:
                # Built-in extern with machine semantics.
                nxt = self.new_pc()
                self.pc_infos[entry].kind = "extern"
                self.emit(
                    ExternStep(entry, nxt, name=rhs.method, args=rhs.args,
                               lhs=lhs, loc=stmt.loc)
                )
                return nxt
            # Declared extern without a body: default Figure 8 model.
            if lhs is not None:
                raise TranslationError(
                    "externs without bodies cannot return values; "
                    "supply a model body",
                    stmt.loc,
                )
            nxt = self.new_pc()
            self.pc_infos[entry].kind = "extern_spec"
            self.emit(
                ExternSpecStep(
                    entry, nxt, method_name=rhs.method, args=rhs.args,
                    params_decl=decl.params, spec=decl.spec, loc=stmt.loc,
                )
            )
            return nxt
        # Ordinary method (or extern with a model body): push a frame.
        result_local: str | None = None
        tail_assign: ast.AssignStmt | None = None
        if lhs is not None:
            if (
                isinstance(lhs, ast.Var)
                and (info := self.ctx.local(self.method.name, lhs.name))
                is not None
                and not info.address_taken
            ):
                result_local = lhs.name
            else:
                result_local = self._fresh_temp(decl.return_type)
                temp_var = ast.Var(result_local, loc=stmt.loc)
                temp_var.type = decl.return_type
                tail_assign = ast.AssignStmt(
                    [lhs], [ast.ExprRhs(temp_var)], loc=stmt.loc
                )
        nxt = self.new_pc()
        self.pc_infos[entry].kind = "call"
        self.emit(
            CallStep(
                entry, nxt, method=rhs.method, args=rhs.args,
                result_local=result_local, loc=stmt.loc,
            )
        )
        if tail_assign is not None:
            return self._translate_assign(tail_assign, nxt)
        return nxt

    def _fresh_temp(self, t: ty.Type) -> str:
        name = f"$ret{self.temp_counter}"
        self.temp_counter += 1
        mctx = self.ctx.method_contexts[self.method.name]
        mctx.locals[name] = LocalInfo(name, t)
        return name

    # ------------------------------------------------------------------

    def _translate_if(self, stmt: ast.IfStmt, entry: str) -> str:
        self.pc_infos[entry].kind = "guard"
        exit_pc = self.new_pc()
        then_entry = self.new_pc()
        cond = None if isinstance(stmt.cond, ast.Nondet) else stmt.cond
        if stmt.els is not None:
            else_entry = self.new_pc()
            self.emit(BranchStep(entry, then_entry, cond=cond, when=True,
                                 loc=stmt.loc))
            self.emit(BranchStep(entry, else_entry, cond=cond, when=False,
                                 loc=stmt.loc))
            then_out = self.translate_block(stmt.then, then_entry)
            else_out = self.translate_block(stmt.els, else_entry)
            self.alias[then_out] = exit_pc
            if else_out != then_out:
                self.alias[else_out] = exit_pc
        else:
            self.emit(BranchStep(entry, then_entry, cond=cond, when=True,
                                 loc=stmt.loc))
            self.emit(BranchStep(entry, exit_pc, cond=cond, when=False,
                                 loc=stmt.loc))
            then_out = self.translate_block(stmt.then, then_entry)
            self.alias[then_out] = exit_pc
        return exit_pc

    def _translate_while(self, stmt: ast.WhileStmt, entry: str) -> str:
        self.pc_infos[entry].kind = "loop_guard"
        exit_pc = self.new_pc()
        body_entry = self.new_pc()
        cond = None if isinstance(stmt.cond, ast.Nondet) else stmt.cond
        self.emit(BranchStep(entry, body_entry, cond=cond, when=True,
                             loc=stmt.loc))
        self.emit(BranchStep(entry, exit_pc, cond=cond, when=False,
                             loc=stmt.loc))
        if stmt.invariants:
            self.machine.loop_invariants[self.resolve(entry)] = list(
                stmt.invariants
            )
        self.loop_stack.append(_LoopTargets(exit_pc, entry))
        body_out = self.translate_block(stmt.body, body_entry)
        self.loop_stack.pop()
        self.alias[body_out] = entry
        return exit_pc

    def _translate_atomic_region(
        self, stmt: ast.ExplicitYieldBlock | ast.AtomicBlock, entry: str
    ) -> str:
        """Translate an atomic / explicit_yield region.

        PCs created inside are non-yieldable; a ``yield`` statement
        re-marks its PC yieldable.  The region's exit PC is ordinary.
        """
        saved = self.yieldable_default
        self.yieldable_default = False
        body_out = self.translate_block(stmt.body, entry)
        self.yieldable_default = saved
        exit_pc = self.new_pc()
        self.alias[body_out] = exit_pc
        return exit_pc


def translate_level(
    ctx: LevelContext,
    main_method: str = "main",
    memory_model: str | None = None,
) -> StateMachine:
    """Translate a resolved, type-checked level into a state machine
    running under *memory_model* (``None`` selects the TSO default)."""
    machine = StateMachine(ctx, main_method, memory_model=memory_model)
    for method in ctx.level.methods:
        if method.body is None:
            continue
        translator = MethodTranslator(machine, method)
        machine.method_entry[method.name] = translator.translate()
    if main_method not in machine.method_entry:
        raise TranslationError(
            f"level {ctx.level.name} has no {main_method} method"
        )
    # Precompute newframe havoc targets and memory-resident locals.
    for name, mctx in ctx.method_contexts.items():
        memory_locals = []
        newframe = []
        for lname, info in mctx.locals.items():
            if info.address_taken:
                memory_locals.append(lname)
            elif not info.is_param and isinstance(
                info.type, (ty.IntType, ty.BoolType)
            ):
                newframe.append((lname, info.type))
        machine.memory_locals[name] = memory_locals
        machine.newframe_locals[name] = newframe
    return machine
