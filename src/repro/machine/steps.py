"""Step objects: the program-specific transition types of the state
machine (§3.2.2) with encapsulated nondeterminism (§4.1).

Each statement of an Armada program translates into one or more step
*types*, each with "a function that describes its specific semantics".
A step instance is attached to a source PC and names its successor PC.
All nondeterminism of a step — nondet ``*`` expressions, havoced values
of a ``somehow``, uninitialized stack variables of a call, allocation
failure of ``malloc`` — is manifest in the step's *parameters*
(:meth:`Step.nondet_vars`), so that ``next_state(state, step-with-params)``
is a deterministic function.  This is exactly the paper's
non-determinism encapsulation, which later makes reduction-commutativity
lemmas mechanical.
"""

from __future__ import annotations

from typing import Any, TYPE_CHECKING

from repro.lang import asts as ast
from repro.lang import types as ty
from repro.machine import evaluator as ev
from repro.machine.evaluator import (
    EvalContext,
    GhostPlace,
    LocalPlace,
    MemoryPlace,
    Place,
)
from repro.machine.state import ProgramState, UBSignal
from repro.machine.values import (
    CompositeValue,
    Location,
    NULL,
    Pointer,
    Root,
    default_value,
    leaf_locations,
)
from repro.record import Fresh, FrozenRecord, Record

if TYPE_CHECKING:  # pragma: no cover
    from repro.machine.program import StateMachine


class NondetVar(FrozenRecord):
    """One encapsulated source of nondeterminism in a step.

    ``kind`` distinguishes guard/expression nondet (``expr``), havoc
    targets of ``somehow``/extern models (``havoc``), uninitialized
    stack variables (``newframe``, the paper's ``newframe_x``), and
    allocation success (``alloc``).
    """

    key: Any
    type: ty.Type
    kind: str


def _collect_nondet(exprs: list[ast.Expr]) -> list[ast.Nondet]:
    found: list[ast.Nondet] = []
    for expr in exprs:
        for node in ast.walk_expr(expr):
            if isinstance(node, ast.Nondet):
                found.append(node)
    return found


# ---------------------------------------------------------------------------
# Writing places


def write_place(
    ec: EvalContext,
    state: ProgramState,
    place: Place,
    value: Any,
    buffered: bool,
) -> ProgramState:
    """Write *value* to *place*.

    Shared-memory writes are committed by the active memory model: under
    x86-TSO they go through the thread's store buffer when *buffered*
    (ordinary ``:=``) or directly to global memory for bypassing ``::=``
    writes; under SC always directly; under RA as release writes
    appended to the location history.  Contexts without an attached
    model (strategy/analysis evaluation) use the inline TSO path.
    Frame and ghost writes are always direct.  Composite values
    decompose into leaf writes in order.
    """
    tid = ec.tid
    if isinstance(place, MemoryPlace):
        status = state.allocation.get(place.location.root)
        if status == "freed":
            raise UBSignal(f"write to freed object {place.location.root}")
        if status is None and place.location.root.kind != "global":
            raise UBSignal(f"write to invalid object {place.location.root}")
        leaves = _decompose(place.location, place.type, value)
        if ec.memmodel is not None:
            return ec.memmodel.write_leaves(state, tid, leaves, buffered)
        if buffered:
            thread = state.thread(tid)
            for loc, leaf in leaves:
                thread = thread.push_buffer(loc, leaf)
            return state.with_thread(thread)
        new_memory = state.memory
        for loc, leaf in leaves:
            new_memory = new_memory.set(loc, leaf)
        return state.replace(memory=new_memory)
    if isinstance(place, LocalPlace):
        thread = state.thread(tid)
        frame = thread.top
        if place.path:
            current = frame.locals.get(place.name)
            if not isinstance(current, CompositeValue):
                raise UBSignal(f"component write to non-composite "
                               f"{place.name}")
            current = _update_composite(current, place.path, value)
            value = current
        return state.with_thread(thread.set_local(place.name, value))
    assert isinstance(place, GhostPlace)
    return state.with_ghost(place.name, value)


def _decompose(
    location: Location, t: ty.Type, value: Any
) -> list[tuple[Location, Any]]:
    if isinstance(t, (ty.ArrayType, ty.StructType)):
        if not isinstance(value, CompositeValue):
            raise UBSignal("composite write with non-composite value")
        result: list[tuple[Location, Any]] = []
        children = (
            [(i, t.element) for i in range(t.size)]
            if isinstance(t, ty.ArrayType)
            else [(i, f.type) for i, f in enumerate(t.fields)]
        )
        for index, sub in children:
            result.extend(
                _decompose(location.child(index), sub, value.children[index])
            )
        return result
    return [(location, value)]


def _update_composite(
    value: CompositeValue, path: tuple[int, ...], new: Any
) -> CompositeValue:
    if len(path) == 1:
        return value.with_child(path[0], new)
    child = value.children[path[0]]
    if not isinstance(child, CompositeValue):
        raise UBSignal("component write through non-composite")
    return value.with_child(
        path[0], _update_composite(child, path[1:], new)
    )


# ---------------------------------------------------------------------------
# Step base


class Step(Record, keyword_only=("loc", "label")):
    """Base class for steps.  Identity-based equality: each step object
    is a unique transition type of one program.

    The four kinds the translator builds most (assignments, branches,
    externs and returns: nine in ten steps of the case studies) write
    out their constructors, which run in about a fifth of the time the
    record base's generic one takes; the rest use the generic one.
    """

    pc: str
    target: str | None
    loc: Any = None
    #: Label of the originating statement (for cross-level matching).
    label: str | None = None

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def nondet_vars(self) -> list[NondetVar]:
        """The encapsulated nondeterminism parameters of this step."""
        return []

    def reads_exprs(self) -> list[ast.Expr]:
        """Expressions this step evaluates (used by strategies)."""
        return []

    def enabled(
        self, machine: "StateMachine", state: ProgramState, tid: int,
        params: dict[Any, Any],
    ) -> bool:
        """Whether this step may fire (blocking semantics).

        Undefined behaviour is *not* blocking: a step whose execution
        would be UB is enabled and produces a UB-terminated state.
        """
        return True

    def apply(
        self, machine: "StateMachine", state: ProgramState, tid: int,
        params: dict[Any, Any],
    ) -> ProgramState:
        raise NotImplementedError

    def _ec(
        self, machine: "StateMachine", state: ProgramState, tid: int,
        params: dict[Any, Any], old_state: ProgramState | None = None,
    ) -> EvalContext:
        method = state.thread(tid).top.method
        return EvalContext(machine.ctx, state, tid, method, params, old_state,
                           memmodel=machine.memmodel)

    def _advance(self, state: ProgramState, tid: int,
                 machine: "StateMachine") -> ProgramState:
        thread = state.thread(tid).with_pc(self.target)
        state = state.with_thread(thread)
        return machine.update_atomic_owner(state, tid)

    def describe(self) -> str:
        return type(self).__name__


# ---------------------------------------------------------------------------
# Concrete steps


class AssignStep(Step):
    """Simultaneous assignment ``lhs, ... := rhs, ...`` (§3.1.1).

    ``tso_bypass`` distinguishes ``::=`` (sequentially consistent) from
    the default x86-TSO buffered write.
    """

    lhss: list[ast.Expr] = Fresh(list)
    rhss: list[ast.Expr] = Fresh(list)
    tso_bypass: bool = False
    ghost_only: bool = False

    def __init__(self, pc, target, lhss=None, rhss=None, tso_bypass=False,
                 ghost_only=False, *, loc=None, label=None):
        self.pc, self.target, self.loc, self.label = pc, target, loc, label
        self.lhss = [] if lhss is None else lhss
        self.rhss = [] if rhss is None else rhss
        self.tso_bypass = tso_bypass
        self.ghost_only = ghost_only

    def nondet_vars(self) -> list[NondetVar]:
        nodes = _collect_nondet(self.lhss + self.rhss)
        return [
            NondetVar(id(n), n.type or ty.MATHINT, "expr") for n in nodes
        ]

    def reads_exprs(self) -> list[ast.Expr]:
        return self.lhss + self.rhss

    def apply(self, machine, state, tid, params):
        ec = self._ec(machine, state, tid, params)
        values = [ev.eval_expr(ec, rhs) for rhs in self.rhss]
        places = [ev.eval_place(ec, lhs) for lhs in self.lhss]
        for place, value, lhs in zip(places, values, self.lhss):
            value = fit(lhs.type, value)
            buffered = (not self.tso_bypass) and isinstance(
                place, MemoryPlace
            )
            state = write_place(
                ec.with_state(state), state, place, value, buffered
            )
        return self._advance(state, tid, machine)


def fit(t: ty.Type | None, value: Any) -> Any:
    """Check that *value* fits the target type (C assignment semantics:
    implicit narrowing is not allowed in Armada; a mismatch is UB)."""
    if isinstance(t, ty.IntType) and isinstance(value, int) \
            and not isinstance(value, bool):
        if not t.contains(value):
            raise UBSignal(f"value {value} does not fit {t}")
    return value


class BranchStep(Step):
    """One direction of an ``if``/``while`` guard evaluation.

    A guard produces two step types (true/false).  A nondeterministic
    ``*`` guard makes both unconditionally enabled; the scheduler's
    choice of step is the encapsulated nondeterminism.
    """

    cond: ast.Expr | None = None  # None = nondeterministic guard
    when: bool = True

    def __init__(self, pc, target, cond=None, when=True, *, loc=None,
                 label=None):
        self.pc, self.target, self.loc, self.label = pc, target, loc, label
        self.cond = cond
        self.when = when

    def nondet_vars(self) -> list[NondetVar]:
        if self.cond is None:
            return []
        nodes = _collect_nondet([self.cond])
        return [NondetVar(id(n), n.type or ty.BOOL, "expr") for n in nodes]

    def reads_exprs(self) -> list[ast.Expr]:
        return [self.cond] if self.cond is not None else []

    def enabled(self, machine, state, tid, params):
        if self.cond is None:
            return True
        ec = self._ec(machine, state, tid, params)
        try:
            return bool(ev.eval_expr(ec, self.cond)) == self.when
        except UBSignal:
            # The guard evaluation itself is UB: let the step fire and
            # produce the UB state (only via the `when=True` twin so the
            # UB behaviour is not duplicated).
            return self.when

    def apply(self, machine, state, tid, params):
        if self.cond is not None:
            ec = self._ec(machine, state, tid, params)
            ev.eval_expr(ec, self.cond)  # may raise UBSignal
        return self._advance(state, tid, machine)


class AssumeStep(Step):
    """An enablement condition (§3.1.2): blocks until the predicate holds."""

    cond: ast.Expr = None  # type: ignore[assignment]

    def reads_exprs(self) -> list[ast.Expr]:
        return [self.cond]

    def enabled(self, machine, state, tid, params):
        ec = self._ec(machine, state, tid, params)
        try:
            return bool(ev.eval_expr(ec, self.cond))
        except UBSignal:
            return False

    def apply(self, machine, state, tid, params):
        return self._advance(state, tid, machine)


class AssertStep(Step):
    """``assert e;`` — crashes (assert-failure termination) if false."""

    cond: ast.Expr = None  # type: ignore[assignment]

    def reads_exprs(self) -> list[ast.Expr]:
        return [self.cond]

    def apply(self, machine, state, tid, params):
        ec = self._ec(machine, state, tid, params)
        if not ev.eval_expr(ec, self.cond):
            return state.terminate("assert_failure", f"at {self.pc}")
        return self._advance(state, tid, machine)


class SomehowStep(Step):
    """A declarative atomic action (§3.1.2).

    UB if a precondition fails; otherwise havocs the modifies lvalues
    with parameter-chosen values, enabled only when every two-state
    ensures predicate holds between old and new state.
    """

    spec: ast.SomehowSpec = Fresh(ast.SomehowSpec)

    def nondet_vars(self) -> list[NondetVar]:
        result = []
        for i, target in enumerate(self.spec.modifies):
            result.append(
                NondetVar(("havoc", self.pc, i), target.type or ty.MATHINT,
                          "havoc")
            )
        return result

    def reads_exprs(self) -> list[ast.Expr]:
        return (list(self.spec.requires) + list(self.spec.modifies)
                + list(self.spec.ensures))

    def _post_state(self, machine, state, tid, params):
        ec = self._ec(machine, state, tid, params)
        for pre in self.spec.requires:
            if not ev.eval_expr(ec, pre):
                raise UBSignal(f"somehow precondition failed at {self.pc}")
        new_state = state
        for i, target in enumerate(self.spec.modifies):
            value = params.get(("havoc", self.pc, i))
            place = ev.eval_place(ec, target)
            new_state = write_place(
                ec.with_state(new_state), new_state, place, value,
                buffered=False,
            )
        return new_state

    def witness_candidates(self, machine, state, tid):
        """Witness heuristics (§4.2.5): mine the postconditions for
        equalities ``target == e`` and offer the pre-state value of *e*
        as a havoc candidate, so enumeration can hit exact effects."""
        return _ensures_witnesses(
            self, machine, state, tid, self.spec.modifies,
            self.spec.ensures, self.pc,
        )

    def enabled(self, machine, state, tid, params):
        try:
            new_state = self._post_state(machine, state, tid, params)
        except UBSignal:
            return True  # fires and manifests UB
        ec2 = self._ec(machine, new_state, tid, params, old_state=state)
        try:
            return all(ev.eval_expr(ec2, e) for e in self.spec.ensures)
        except UBSignal:
            return True

    def apply(self, machine, state, tid, params):
        new_state = self._post_state(machine, state, tid, params)
        ec2 = self._ec(machine, new_state, tid, params, old_state=state)
        for e in self.spec.ensures:
            ev.eval_expr(ec2, e)
        return self._advance(new_state, tid, machine)


def _ensures_witnesses(
    step: Step,
    machine,
    state: ProgramState,
    tid: int,
    modifies: list[ast.Expr],
    ensures: list[ast.Expr],
    pc: str,
    bindings: dict[str, Any] | None = None,
) -> dict[Any, list[Any]]:
    """Extract havoc-value candidates from postcondition equalities.

    For each modified target ``t`` and each conjunct of the form
    ``t == e`` (or ``e == t``), evaluate *e* in the pre-state (where
    ``old(x)`` and plain ``x`` coincide) and offer it as a candidate
    value for the havoc parameter of ``t``.
    """
    method = state.thread(tid).top.method
    ec = EvalContext(machine.ctx, state, tid, method, {}, state, bindings)
    candidates: dict[Any, list[Any]] = {}
    for i, target in enumerate(modifies):
        key = ("havoc", pc, i)
        for post in ensures:
            for node in ast.walk_expr(post):
                if not (isinstance(node, ast.Binary) and node.op == "=="):
                    continue
                other = None
                if _is_target(node.left, target):
                    other = node.right
                elif _is_target(node.right, target):
                    other = node.left
                if other is None:
                    continue
                try:
                    value = ev.eval_expr(ec, other)
                except (UBSignal, KeyError):
                    continue
                candidates.setdefault(key, []).append(value)
    return candidates


def _is_target(expr: ast.Expr, target: ast.Expr) -> bool:
    from repro.lang.astutil import expr_equal

    return expr_equal(expr, target)


class CallStep(Step):
    """A method call: push a frame; uninitialized stack variables take
    arbitrary (parameter-encapsulated ``newframe_x``) values."""

    method: str = ""
    args: list[ast.Expr] = Fresh(list)
    result_local: str | None = None

    def nondet_vars(self) -> list[NondetVar]:
        # newframe parameters are provided by the machine (it knows the
        # callee's uninitialized locals); see StateMachine.newframe_vars.
        return []

    def reads_exprs(self) -> list[ast.Expr]:
        return list(self.args)

    def apply(self, machine, state, tid, params):
        ec = self._ec(machine, state, tid, params)
        values = [ev.eval_expr(ec, a) for a in self.args]
        return machine.push_frame(
            state, tid, self.method, values, self.target, self.result_local,
            params,
        )


class ReturnStep(Step):
    """Method return: pop the frame, deliver the return value, free
    address-taken local roots, terminate the thread on its last frame."""

    value: ast.Expr | None = None

    def __init__(self, pc, target, value=None, *, loc=None, label=None):
        self.pc, self.target, self.loc, self.label = pc, target, loc, label
        self.value = value

    def reads_exprs(self) -> list[ast.Expr]:
        return [self.value] if self.value is not None else []

    def apply(self, machine, state, tid, params):
        value = None
        if self.value is not None:
            ec = self._ec(machine, state, tid, params)
            value = ev.eval_expr(ec, self.value)
        return machine.pop_frame(state, tid, value)


class CreateThreadStep(Step):
    """``create_thread m(args)`` — spawn a thread running *m*."""

    method: str = ""
    args: list[ast.Expr] = Fresh(list)
    lhs: ast.Expr | None = None

    def reads_exprs(self) -> list[ast.Expr]:
        exprs = list(self.args)
        if self.lhs is not None:
            exprs.append(self.lhs)
        return exprs

    def apply(self, machine, state, tid, params):
        ec = self._ec(machine, state, tid, params)
        values = [ev.eval_expr(ec, a) for a in self.args]
        state, new_tid = machine.spawn_thread(state, self.method, values,
                                              params, parent_tid=tid)
        if self.lhs is not None:
            ec = self._ec(machine, state, tid, params)
            place = ev.eval_place(ec, self.lhs)
            buffered = isinstance(place, MemoryPlace)
            state = write_place(ec, state, place, new_tid, buffered)
        return self._advance(state, tid, machine)


class JoinStep(Step):
    """``join e`` — blocks until thread *e* has terminated."""

    thread: ast.Expr = None  # type: ignore[assignment]

    def reads_exprs(self) -> list[ast.Expr]:
        return [self.thread]

    def enabled(self, machine, state, tid, params):
        ec = self._ec(machine, state, tid, params)
        try:
            target = ev.eval_expr(ec, self.thread)
        except UBSignal:
            return True
        other = state.threads.get(target)
        return other is not None and other.terminated

    def apply(self, machine, state, tid, params):
        ec = self._ec(machine, state, tid, params)
        target = ev.eval_expr(ec, self.thread)
        state = ec.memmodel.on_join(state, tid, target)
        return self._advance(state, tid, machine)


class MallocStep(Step):
    """``lhs := malloc(T)`` / ``calloc(T, n)``.

    Allocation is modeled as *finding* a pre-existing object in the
    forest and marking it valid (§3.2.4).  Success is a nondeterministic
    parameter: malloc may return null.
    """

    lhs: ast.Expr = None  # type: ignore[assignment]
    alloc_type: ty.Type = None  # type: ignore[assignment]
    count: ast.Expr | None = None  # calloc only

    def nondet_vars(self) -> list[NondetVar]:
        return [NondetVar(("alloc", self.pc), ty.BOOL, "alloc")]

    def reads_exprs(self) -> list[ast.Expr]:
        return [self.lhs] + ([self.count] if self.count else [])

    def apply(self, machine, state, tid, params):
        ec = self._ec(machine, state, tid, params)
        success = params.get(("alloc", self.pc), True)
        if not success:
            pointer: Any = NULL
        else:
            object_type = self.alloc_type
            if self.count is not None:
                n = ev.eval_expr(ec, self.count)
                if not isinstance(n, int) or n <= 0:
                    raise UBSignal(f"calloc with count {n!r}")
                object_type = ty.ArrayType(self.alloc_type, n)
            serial = state.next_serial
            root = Root("alloc", "", serial)
            updates = {
                loc: default_value(leaf_t)
                for loc, leaf_t in leaf_locations(root, object_type)
            }
            state = state.replace(
                memory=state.memory.set_many(updates),
                allocation=state.allocation.set(root, "valid"),
                ghosts=state.ghosts.set(("alloc_type", serial), object_type),
                next_serial=serial + 1,
            )
            target_loc = Location(root)
            target_type = object_type
            if self.count is not None:
                target_loc = target_loc.child(0)
                target_type = self.alloc_type
            pointer = Pointer(target_loc, target_type)
        ec = self._ec(machine, state, tid, params)
        place = ev.eval_place(ec, self.lhs)
        buffered = isinstance(place, MemoryPlace)
        state = write_place(ec, state, place, pointer, buffered)
        return self._advance(state, tid, machine)


class DeallocStep(Step):
    """``dealloc e`` — marks the whole allocation freed; subsequent
    access through any pointer into it is UB."""

    ptr: ast.Expr = None  # type: ignore[assignment]

    def reads_exprs(self) -> list[ast.Expr]:
        return [self.ptr]

    def apply(self, machine, state, tid, params):
        ec = self._ec(machine, state, tid, params)
        pointer = ev.eval_expr(ec, self.ptr)
        if not isinstance(pointer, Pointer):
            raise UBSignal("dealloc of non-pointer")
        root = pointer.location.root
        if state.allocation.get(root) != "valid":
            raise UBSignal(f"dealloc of non-allocated object {root}")
        state = state.replace(
            allocation=state.allocation.set(root, "freed")
        )
        return self._advance(state, tid, machine)


class ExternStep(Step):
    """A call to a prelude external method with built-in concurrency-
    aware semantics (§3.1.4): mutexes, hardware atomics, fences, output.

    Atomic read-modify-write steps require an empty store buffer (x86's
    LOCK prefix drains it) and write global memory directly.
    """

    name: str = ""
    args: list[ast.Expr] = Fresh(list)
    lhs: ast.Expr | None = None

    def __init__(self, pc, target, name="", args=None, lhs=None, *,
                 loc=None, label=None):
        self.pc, self.target, self.loc, self.label = pc, target, loc, label
        self.name = name
        self.args = [] if args is None else args
        self.lhs = lhs

    def reads_exprs(self) -> list[ast.Expr]:
        exprs = list(self.args)
        if self.lhs is not None:
            exprs.append(self.lhs)
        return exprs

    def _mutex_location(self, machine, state, tid, params) -> Location:
        ec = self._ec(machine, state, tid, params)
        pointer = ev.eval_expr(ec, self.args[0])
        if not isinstance(pointer, Pointer):
            raise UBSignal(f"{self.name} of non-pointer")
        return pointer.location

    def enabled(self, machine, state, tid, params):
        thread = state.thread(tid)
        if self.name in ("lock", "unlock", "compare_and_swap",
                         "atomic_exchange", "atomic_fetch_add", "fence"):
            if not thread.sb_empty:
                return False
        if self.name == "lock":
            try:
                loc = self._mutex_location(machine, state, tid, params)
            except UBSignal:
                return True
            return state.memory.get(loc, 0) == 0
        return True

    def apply(self, machine, state, tid, params):
        ec = self._ec(machine, state, tid, params)
        mm = ec.memmodel
        name = self.name
        result: Any = None
        if name == "initialize_mutex":
            loc = self._mutex_location(machine, state, tid, params)
            state = mm.atomic_update(state, tid, loc, 0)
        elif name == "lock":
            loc = self._mutex_location(machine, state, tid, params)
            state = mm.atomic_update(state, tid, loc, tid)
        elif name == "unlock":
            loc = self._mutex_location(machine, state, tid, params)
            if state.memory.get(loc) != tid:
                raise UBSignal("unlock of a mutex not held by this thread")
            state = mm.atomic_update(state, tid, loc, 0)
        elif name == "compare_and_swap":
            loc = self._mutex_location(machine, state, tid, params)
            expected = ev.eval_expr(ec, self.args[1])
            desired = ev.eval_expr(ec, self.args[2])
            current = state.memory.get(loc)
            if current is None:
                raise UBSignal("CAS on unmapped location")
            if current == expected:
                state = mm.atomic_update(state, tid, loc, desired)
                result = True
            else:
                state = mm.atomic_acquire(state, tid, loc)
                result = False
        elif name == "atomic_exchange":
            loc = self._mutex_location(machine, state, tid, params)
            value = ev.eval_expr(ec, self.args[1])
            current = state.memory.get(loc)
            if current is None:
                raise UBSignal("exchange on unmapped location")
            state = mm.atomic_update(state, tid, loc, value)
            result = current
        elif name == "atomic_fetch_add":
            loc = self._mutex_location(machine, state, tid, params)
            delta = ev.eval_expr(ec, self.args[1])
            current = state.memory.get(loc)
            if current is None:
                raise UBSignal("fetch_add on unmapped location")
            state = mm.atomic_update(
                state, tid, loc, ty.UINT64.wrap(current + delta)
            )
            result = current
        elif name == "fence":
            state = mm.fence(state, tid)
        elif name in ("print_uint64", "print_uint32"):
            value = ev.eval_expr(ec, self.args[0])
            state = state.append_log(value)
        else:
            raise UBSignal(f"unknown extern {name}")
        if self.lhs is not None:
            ec = self._ec(machine, state, tid, params)
            place = ev.eval_place(ec, self.lhs)
            buffered = isinstance(place, MemoryPlace)
            state = write_place(ec, state, place, result, buffered)
        return self._advance(state, tid, machine)


class ExternSpecStep(Step):
    """A call to a *declared* extern method without a body: the default
    model of Figure 8, collapsed to a single atomic havoc of the write
    set subject to the postconditions.

    The paper's full default model re-havocs in a loop and manifests UB
    if the read set changes concurrently; our collapsed form preserves
    the reachable post-states (each terminating loop execution's net
    effect is one havoc satisfying the postcondition) — see DESIGN.md.
    """

    method_name: str = ""
    args: list[ast.Expr] = Fresh(list)
    result_local: str | None = None
    params_decl: list = Fresh(list)
    spec: ast.MethodSpec = Fresh(ast.MethodSpec)

    def nondet_vars(self) -> list[NondetVar]:
        result = []
        for i, target in enumerate(self.spec.modifies):
            result.append(
                NondetVar(("havoc", self.pc, i), target.type or ty.MATHINT,
                          "havoc")
            )
        return result

    def reads_exprs(self) -> list[ast.Expr]:
        return list(self.args) + list(self.spec.modifies)

    def _bindings(self, machine, state, tid, params) -> dict[str, Any]:
        ec = self._ec(machine, state, tid, params)
        return {
            p.name: ev.eval_expr(ec, arg)
            for p, arg in zip(self.params_decl, self.args)
        }

    def _post_state(self, machine, state, tid, params):
        bindings = self._bindings(machine, state, tid, params)
        method = state.thread(tid).top.method
        ec = EvalContext(machine.ctx, state, tid, method, params, None,
                         bindings, memmodel=machine.memmodel)
        for pre in self.spec.requires:
            if not ev.eval_expr(ec, pre):
                raise UBSignal(
                    f"extern {self.method_name} precondition failed"
                )
        new_state = state
        for i, target in enumerate(self.spec.modifies):
            value = params.get(("havoc", self.pc, i))
            place = ev.eval_place(ec, target)
            new_state = write_place(
                ec.with_state(new_state), new_state, place, value,
                buffered=False,
            )
        return new_state, bindings

    def witness_candidates(self, machine, state, tid):
        try:
            bindings = self._bindings(machine, state, tid, {})
        except (UBSignal, KeyError):
            bindings = {}
        return _ensures_witnesses(
            self, machine, state, tid, self.spec.modifies,
            self.spec.ensures, self.pc, bindings,
        )

    def enabled(self, machine, state, tid, params):
        try:
            new_state, bindings = self._post_state(machine, state, tid,
                                                   params)
        except UBSignal:
            return True
        method = state.thread(tid).top.method
        ec2 = EvalContext(machine.ctx, new_state, tid, method, params, state,
                          bindings)
        try:
            return all(ev.eval_expr(ec2, e) for e in self.spec.ensures)
        except UBSignal:
            return True

    def apply(self, machine, state, tid, params):
        new_state, bindings = self._post_state(machine, state, tid, params)
        method = state.thread(tid).top.method
        ec2 = EvalContext(machine.ctx, new_state, tid, method, params, state,
                          bindings)
        for e in self.spec.ensures:
            ev.eval_expr(ec2, e)
        return self._advance(new_state, tid, machine)
