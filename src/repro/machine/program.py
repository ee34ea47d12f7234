"""The program-specific state machine (§3.2.2) and its execution engine.

A :class:`StateMachine` holds the enumerated PC type (one value per
program position), the step types at each PC, and the deterministic
``next_state`` function.  The machine also provides transition
enumeration for the explicit-state explorer, including the implicit
x86-TSO store-buffer drain transitions and the atomic-region scheduling
constraint of ``explicit_yield`` blocks.
"""

from __future__ import annotations

from typing import Any, Iterable, TYPE_CHECKING

from repro.errors import TranslationError
from repro.lang import asts as ast
from repro.lang import types as ty
from repro.lang.resolver import LevelContext
from repro.machine.evaluator import eval_formula
from repro.machine.pmap import PMap
from repro.machine.state import (
    Frame,
    ProgramState,
    TERM_NORMAL,
    TERM_UB,
    ThreadState,
    UBSignal,
)
from repro.machine.steps import (
    CallStep,
    CreateThreadStep,
    NondetVar,
    Step,
    fit,
)
from repro.machine.values import (
    Location,
    Root,
    default_value,
    leaf_locations,
)
from repro.record import Fresh, Record, Slotted

if TYPE_CHECKING:  # pragma: no cover
    from repro.memmodel import MemoryModel


class PcInfo(Record):
    """Metadata for one program counter value.  Built once per pc, the
    commonest record the translator builds, so it writes out its
    constructor."""

    pc: str
    method: str
    index: int
    yieldable: bool = True
    label: str | None = None
    loc: Any = None
    kind: str = ""  # statement kind for strategy matching

    def __init__(self, pc, method, index, yieldable=True, label=None,
                 loc=None, kind=""):
        self.pc = pc
        self.method = method
        self.index = index
        self.yieldable = yieldable
        self.label = label
        self.loc = loc
        self.kind = kind


class Transition(Slotted):
    """One schedulable transition: a thread step (with its encapsulated
    nondeterminism resolved) or a memory-model environment move (a TSO
    store-buffer drain, an RA view advance).

    Built once per successor, so it writes out its ``__init__``;
    immutable by convention.
    """

    __slots__ = ("tid", "step", "params")

    def __init__(
        self,
        tid: int,
        step: Step | None,  # None = environment move
        params: tuple[tuple[Any, Any], ...] = (),
    ) -> None:
        self.tid = tid
        self.step = step
        self.params = params

    @property
    def is_drain(self) -> bool:
        return self.step is None

    def params_dict(self) -> dict:
        return dict(self.params)

    def describe(self) -> str:
        if self.is_drain:
            if self.params:
                detail = ",".join(
                    f"{k}={v}" for k, v in self.params
                )
                return f"t{self.tid}:env:{detail}"
            return f"t{self.tid}:drain"
        return f"t{self.tid}:{self.step.pc}:{type(self.step).__name__}"


class DomainConfig(Record):
    """Finite value domains for encapsulated nondeterminism.

    This is where the reproduction's *bounded* checking substitutes for
    Z3's unbounded reasoning: the explorer enumerates these domains; the
    symbolic verifier treats the same parameters as free variables.
    """

    bool_values: tuple = (False, True)
    int_values: tuple = (0, 1)
    newframe_int_values: tuple = (0,)
    overrides: dict[Any, tuple] = Fresh(dict)

    def values(self, var: NondetVar) -> tuple:
        if var.key in self.overrides:
            return self.overrides[var.key]
        t = var.type
        if isinstance(t, ty.BoolType):
            return self.bool_values
        if t.is_integer():
            if var.kind == "newframe":
                return self.newframe_int_values
            return self.int_values
        # Pointers, options, composites: default value only.
        return (default_value(t),)


class StateMachine:
    """A translated Armada level: PCs, steps, and execution."""

    def __init__(
        self,
        ctx: LevelContext,
        main_method: str = "main",
        memory_model: "str | MemoryModel | None" = None,
    ) -> None:
        # Deferred import: repro.memmodel reaches back into
        # repro.machine.state/pmap at module load.
        from repro.memmodel import get_model

        self.ctx = ctx
        self.level_name = ctx.level.name
        self.main_method = main_method
        self.memmodel: "MemoryModel" = get_model(memory_model)
        self.pcs: dict[str, PcInfo] = {}
        self.steps_by_pc: dict[str, list[Step]] = {}
        self.method_entry: dict[str, str] = {}
        self.domains = DomainConfig()
        #: Per-method locals that live in shared memory (address taken).
        self.memory_locals: dict[str, list[str]] = {}
        #: Per-method uninitialized scalar locals (newframe havoc targets).
        self.newframe_locals: dict[str, list[tuple[str, ty.Type]]] = {}
        #: Loop invariants attached to loop-guard PCs (rely-guarantee).
        self.loop_invariants: dict[str, list[ast.Expr]] = {}

    # ------------------------------------------------------------------
    # structure access

    def steps_at(self, pc: str) -> list[Step]:
        return self.steps_by_pc.get(pc, [])

    def all_steps(self) -> Iterable[Step]:
        for steps in self.steps_by_pc.values():
            yield from steps

    def step_count(self) -> int:
        return sum(len(s) for s in self.steps_by_pc.values())

    # ------------------------------------------------------------------
    # initial state

    def initial_state(self) -> ProgramState:
        memory: dict[Location, Any] = {}
        ghosts: dict[Any, Any] = {}
        for g in self.ctx.level.globals:
            init_value = (
                _initial_value(g) if g.init is not None
                else default_value(g.var_type)
            )
            if g.ghost:
                ghosts[g.name] = init_value
            else:
                root = Root("global", g.name)
                leaves = leaf_locations(root, g.var_type)
                flat = _flatten(g.var_type, init_value)
                for (loc, _leaf_t), v in zip(leaves, flat):
                    memory[loc] = v
        state = ProgramState(
            threads=PMap(),
            memory=PMap(memory),
            allocation=PMap(),
            ghosts=PMap(ghosts),
            next_tid=1,
            next_serial=1,
        )
        state = self.memmodel.init_state(state)
        state, main_tid = self.spawn_thread(state, self.main_method, [], {})
        return state

    # ------------------------------------------------------------------
    # frames and threads

    def _make_frame(
        self,
        state: ProgramState,
        method: str,
        args: list[Any],
        params: dict,
        return_pc: str | None,
        result_local: str | None,
    ) -> tuple[ProgramState, Frame]:
        decl = self.ctx.methods.get(method)
        if decl is None:
            raise TranslationError(f"no such method {method}")
        serial = state.next_serial
        state = state.replace(next_serial=serial + 1)
        locals_map: dict[str, Any] = {}
        for param, value in zip(decl.params, args):
            locals_map[param.name] = value
        mctx = self.ctx.method_contexts.get(method)
        if mctx is not None:
            memory_updates: dict[Location, Any] = {}
            allocation_updates: dict[Root, str] = {}
            for name, info in mctx.locals.items():
                if info.is_param:
                    continue
                if info.address_taken:
                    root = Root("local", name, serial)
                    for loc, leaf_t in leaf_locations(root, info.type):
                        memory_updates[loc] = default_value(leaf_t)
                    allocation_updates[root] = "valid"
                else:
                    key = ("newframe", method, name)
                    locals_map[name] = params.get(
                        key, default_value(info.type)
                    )
            if memory_updates:
                state = state.replace(
                    memory=state.memory.set_many(memory_updates),
                    allocation=state.allocation.set_many(allocation_updates),
                )
        frame = Frame(method, serial, PMap(locals_map), return_pc,
                      result_local)
        return state, frame

    def push_frame(
        self,
        state: ProgramState,
        tid: int,
        method: str,
        args: list[Any],
        return_pc: str | None,
        result_local: str | None,
        params: dict,
    ) -> ProgramState:
        state, frame = self._make_frame(
            state, method, args, params, return_pc, result_local
        )
        thread = state.thread(tid)
        thread = thread.replace(
            pc=self.method_entry[method],
            frames=(frame,) + thread.frames,
        )
        state = state.with_thread(thread)
        return self.update_atomic_owner(state, tid)

    def pop_frame(
        self, state: ProgramState, tid: int, value: Any
    ) -> ProgramState:
        thread = state.thread(tid)
        frame = thread.frames[0]
        # Free address-taken local roots: pointers into them dangle.
        mctx = self.ctx.method_contexts.get(frame.method)
        if mctx is not None:
            freed = {}
            for name, info in mctx.locals.items():
                if info.address_taken:
                    root = Root("local", name, frame.serial)
                    if state.allocation.get(root) == "valid":
                        freed[root] = "freed"
            if freed:
                state = state.replace(
                    allocation=state.allocation.set_many(freed)
                )
        rest = thread.frames[1:]
        if not rest:
            thread = thread.replace(pc=None, frames=())
            state = state.with_thread(thread)
            state = self.update_atomic_owner(state, tid)
            if tid == 1:
                # Main thread exit terminates the program normally.
                state = state.terminate(TERM_NORMAL)
            return state
        caller = rest[0]
        if frame.return_lhs_key is not None and value is not None:
            caller = caller.with_local(frame.return_lhs_key, value)
        thread = thread.replace(
            pc=frame.return_pc, frames=(caller,) + rest[1:]
        )
        state = state.with_thread(thread)
        return self.update_atomic_owner(state, tid)

    def spawn_thread(
        self,
        state: ProgramState,
        method: str,
        args: list[Any],
        params: dict,
        parent_tid: int | None = None,
    ) -> tuple[ProgramState, int]:
        tid = state.next_tid
        state = state.replace(next_tid=tid + 1)
        state, frame = self._make_frame(state, method, args, params, None,
                                        None)
        thread = ThreadState(
            tid=tid, pc=self.method_entry[method], frames=(frame,)
        )
        parent = (
            state.threads.get(parent_tid) if parent_tid is not None else None
        )
        thread = self.memmodel.init_thread(thread, parent)
        state = state.with_thread(thread)
        return state, tid

    # ------------------------------------------------------------------
    # atomic-region scheduling

    def update_atomic_owner(
        self, state: ProgramState, tid: int
    ) -> ProgramState:
        """Recompute the atomic-region owner after *tid* moved."""
        thread = state.thread(tid)
        inside = (
            thread.pc is not None and not self.pcs[thread.pc].yieldable
        )
        if inside:
            return state.replace(atomic_owner=tid)
        if state.atomic_owner == tid:
            return state.replace(atomic_owner=None)
        return state

    # ------------------------------------------------------------------
    # transition enumeration

    def draws(self, step: Step) -> list[NondetVar]:
        """The values *step* draws when it fires: its own
        nondeterminism, plus the callee's uninitialized locals
        (``newframe``) for a call or a thread creation."""
        variables = list(step.nondet_vars())
        if isinstance(step, (CallStep, CreateThreadStep)):
            callee = step.method
            variables.extend(
                NondetVar(("newframe", callee, name), t, "newframe")
                for name, t in self.newframe_locals.get(callee, ())
            )
        return variables

    def param_assignments(
        self,
        step: Step,
        method: str,
        state: ProgramState | None = None,
        tid: int | None = None,
    ) -> list[tuple[tuple[Any, Any], ...]]:
        """Cartesian product of the step's nondeterminism domains.

        When *state* is supplied, steps may contribute state-dependent
        *witness candidates* (e.g. a ``somehow`` whose postcondition is
        ``x == old(x) + 2`` contributes the pre-state value of
        ``old(x) + 2`` for the havoc of ``x``) — the witness heuristics
        of §4.2.5 applied to transition enumeration.
        """
        variables = self.draws(step)
        if not variables:
            return [()]
        candidates: dict[Any, list[Any]] = {}
        if state is not None and tid is not None:
            collect = getattr(step, "witness_candidates", None)
            if collect is not None:
                try:
                    candidates = collect(self, state, tid)
                except Exception:
                    candidates = {}
        assignments: list[tuple[tuple[Any, Any], ...]] = [()]
        for var in variables:
            values = list(self.domains.values(var))
            for extra in candidates.get(var.key, []):
                if extra not in values:
                    values.append(extra)
            assignments = [
                partial + ((var.key, value),)
                for partial in assignments
                for value in values
            ]
        return assignments

    def enabled_transitions(self, state: ProgramState) -> list[Transition]:
        if not state.running:
            return []
        transitions: list[Transition] = []
        tids = sorted(state.threads.keys())
        if state.atomic_owner is not None:
            tids = [state.atomic_owner]
        memmodel = self.memmodel
        for tid in tids:
            thread = state.threads[tid]
            # Environment moves are asynchronous hardware effects (TSO
            # write-backs, RA view advances); under TSO they remain
            # enabled even after the thread has terminated (a thread may
            # exit with pending stores that must still reach memory).
            for env_params in memmodel.env_moves(state, thread, self):
                transitions.append(Transition(tid, None, env_params))
            if thread.terminated or thread.pc is None:
                continue
            method = thread.top.method
            for step in self.steps_at(thread.pc):
                for params in self.param_assignments(step, method, state,
                                                     tid):
                    try:
                        is_enabled = step.enabled(
                            self, state, tid, dict(params)
                        )
                    except UBSignal:
                        is_enabled = True
                    if is_enabled:
                        transitions.append(Transition(tid, step, params))
        return transitions

    # ------------------------------------------------------------------
    # deterministic next-state function (§4.1)

    def next_state(
        self, state: ProgramState, transition: Transition
    ) -> ProgramState:
        """The deterministic ``NextState(state, step-object)`` function.

        Undefined behaviour during the step terminates the program with
        the UB termination kind (§3.2.3).
        """
        if not state.running:
            return state
        if transition.is_drain:
            return self.memmodel.apply_env(
                state, transition.tid, transition.params
            )
        try:
            return transition.step.apply(
                self, state, transition.tid, transition.params_dict()
            )
        except UBSignal as signal:
            return state.terminate(TERM_UB, signal.reason)


def _initial_value(g: ast.GlobalVarDecl) -> Any:
    """The value global *g* starts with: its initializer evaluated like
    an assignment's right-hand side, through the evaluator and the
    assignment fit check."""
    try:
        return fit(g.var_type, eval_formula(g.init, {}))
    except (KeyError, UBSignal) as error:
        raise TranslationError(
            f"initializer of global {g.name}: {error.args[0]}", g.loc
        ) from None


def _flatten(t: ty.Type, value: Any) -> list[Any]:
    """Flatten a (possibly composite) value into leaf order."""
    from repro.machine.values import CompositeValue

    if isinstance(t, ty.ArrayType):
        if not isinstance(value, CompositeValue):
            raise TranslationError("array initializer must be composite")
        result = []
        for child in value.children:
            result.extend(_flatten(t.element, child))
        return result
    if isinstance(t, ty.StructType):
        if not isinstance(value, CompositeValue):
            raise TranslationError("struct initializer must be composite")
        result = []
        for f, child in zip(t.fields, value.children):
            result.extend(_flatten(f.type, child))
        return result
    return [value]
