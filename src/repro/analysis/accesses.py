"""Per-step read/write footprint extraction over a translated level.

The analyzer works at two precision tiers over the same state machine
the proof engine uses:

* **Static** (:func:`extract_accesses`): every :class:`~repro.machine.steps.Step`
  is mapped to a list of :class:`Access` records naming the *abstract*
  shared locations it may read or write.  Direct global accesses come
  straight from ``Step.reads_exprs()`` and the assignment targets; an
  access through a pointer is resolved to the globals/allocation sites
  in the pointer's Steensgaard region (:mod:`repro.strategies.regions`),
  exactly the region-based aliasing the proof generator already trusts.

* **Dynamic** (:func:`concrete_footprint`): for one concrete state and
  one enabled transition, evaluate the places the step would actually
  touch, down to individual leaf :class:`~repro.machine.values.Location`
  cells (so ``locked[1]`` and ``locked[2]`` do not conflict).  The
  bounded race scan in :mod:`repro.analysis.robustness` uses this to
  adversarially cross-check the static verdicts.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.lang import asts as ast
from repro.lang import types as ty
from repro.lang.resolver import LevelContext
from repro.machine import evaluator as ev
from repro.machine.evaluator import EvalContext, MemoryPlace
from repro.machine.program import StateMachine
from repro.machine.state import ProgramState, UBSignal
from repro.machine.steps import (
    AssignStep,
    CallStep,
    CreateThreadStep,
    ExternSpecStep,
    ExternStep,
    MallocStep,
    SomehowStep,
    Step,
)
from repro.machine.values import Location, Pointer
from repro.record import Fresh, FrozenRecord, Record
from repro.strategies.regions import RegionAnalysis, analyze_regions

#: Extern methods that target memory through their first pointer
#: argument.  All of them execute with a drained store buffer (x86 LOCK
#: prefix / fence semantics), so their accesses are *atomic*.
MUTEX_EXTERNS = ("initialize_mutex", "lock", "unlock")
RMW_EXTERNS = ("compare_and_swap", "atomic_exchange", "atomic_fetch_add")

#: Externs whose execution requires (and therefore implies) an empty
#: store buffer — the buffer-draining points of the TSO machine.
DRAINING_EXTERNS = frozenset(
    ("lock", "unlock", "compare_and_swap", "atomic_exchange",
     "atomic_fetch_add", "fence")
)


class Access(FrozenRecord):
    """One static shared-memory access of one step.

    ``location`` is an abstract location name: a global variable name,
    ``local:<method>:<name>`` for an address-taken stack variable, or
    ``alloc:<site>`` for a Steensgaard allocation site.  ``atomic``
    accesses are performed with a drained store buffer by a LOCK-style
    extern; ``buffered`` writes go through the x86-TSO store buffer.
    """

    pc: str
    method: str
    kind: str  # "read" | "write"
    location: str
    atomic: bool = False
    buffered: bool = False
    step_desc: str = ""

    def describe(self) -> str:
        flags = []
        if self.atomic:
            flags.append("atomic")
        if self.buffered:
            flags.append("buffered")
        suffix = f" [{','.join(flags)}]" if flags else ""
        return (f"{self.kind} of {self.location} at {self.pc} "
                f"({self.step_desc}){suffix}")


class AccessMap(Record):
    """All static accesses of a level, indexed for the later passes."""

    all: list[Access] = Fresh(list)
    by_step: dict[int, list[Access]] = Fresh(dict)
    by_location: dict[str, list[Access]] = Fresh(dict)
    #: Globals used as lock words by the mutex externs.
    mutex_words: set[str] = Fresh(set)
    regions: RegionAnalysis | None = None

    def add(self, step: Step, access: Access) -> None:
        self.all.append(access)
        self.by_step.setdefault(id(step), []).append(access)
        self.by_location.setdefault(access.location, []).append(access)

    def step_accesses(self, step: Step) -> list[Access]:
        return self.by_step.get(id(step), [])

    def touches_memory(self, step: Step) -> bool:
        """Whether the dynamic scan needs to evaluate this step at all."""
        return bool(self.by_step.get(id(step)))


class _Extractor:
    """Walks every step of a machine and records its static accesses."""

    def __init__(self, ctx: LevelContext, machine: StateMachine) -> None:
        self.ctx = ctx
        self.machine = machine
        self.result = AccessMap(regions=analyze_regions(ctx))
        self._region_targets = self._build_region_targets()

    # -- region resolution ---------------------------------------------

    def _build_region_targets(self) -> dict[object, list[str]]:
        """Map each Steensgaard region to the abstract locations whose
        *objects* live in it (the possible targets of a dereference)."""
        regions = self.result.regions
        assert regions is not None
        targets: dict[object, list[str]] = {}
        for loc in sorted(regions.locations):
            if loc.startswith("g:"):
                name = loc[2:]
                g = self.ctx.globals.get(name)
                if g is None or g.ghost:
                    continue
                token = name
            elif loc.startswith("l:"):
                token = "local:" + loc[2:]
            elif loc.startswith("a:"):
                token = "alloc:" + loc[2:]
            else:  # pragma: no cover - unknown kind
                continue
            region = regions.unify.find(("obj", loc))
            targets.setdefault(region, []).append(token)
        return targets

    def _pointee_targets(self, method: str, expr: ast.Expr) -> list[str]:
        """Abstract locations a pointer-valued expression may target."""
        regions = self.result.regions
        assert regions is not None
        if isinstance(expr, ast.AddressOf):
            base = expr.operand
            while isinstance(base, (ast.FieldAccess, ast.Index)):
                base = base.base
            if isinstance(base, ast.Var):
                return self._abstract_of_var(method, base.name)
            return []
        if isinstance(expr, ast.Var):
            local = self.ctx.local(method, expr.name)
            loc = (
                f"l:{method}:{expr.name}" if local is not None
                else f"g:{expr.name}"
            )
            region = regions.unify.find(("pt", loc))
            return list(self._region_targets.get(region, []))
        if isinstance(expr, ast.Binary) and expr.op in ("+", "-"):
            return self._pointee_targets(method, expr.left)
        return []

    def _abstract_of_var(self, method: str, name: str) -> list[str]:
        local = self.ctx.local(method, name)
        if local is not None:
            if local.address_taken:
                return [f"local:{method}:{name}"]
            return []
        g = self.ctx.globals.get(name)
        if g is not None and not g.ghost:
            return [name]
        return []

    # -- expression reads ----------------------------------------------

    def _expr_reads(
        self, method: str, expr: ast.Expr | None, acc: list[str],
        addressed: bool = False,
    ) -> None:
        """Collect the abstract locations read when evaluating *expr*.

        ``addressed`` marks lvalue positions whose own cell is *not*
        read (the target of an assignment, the operand of ``&``): their
        embedded index/pointer subexpressions still are.
        """
        if expr is None:
            return
        if isinstance(expr, ast.Var):
            if not addressed:
                acc.extend(self._abstract_of_var(method, expr.name))
            return
        if isinstance(expr, ast.AddressOf):
            self._expr_reads(method, expr.operand, acc, addressed=True)
            return
        if isinstance(expr, ast.Deref):
            # The pointer cell itself is read...
            self._expr_reads(method, expr.operand, acc)
            # ...and so is the pointee, unless we only take its address.
            if not addressed:
                acc.extend(self._pointee_targets(method, expr.operand))
            return
        if isinstance(expr, ast.Index):
            base_t = getattr(expr.base, "type", None)
            if isinstance(base_t, ty.PtrType):
                self._expr_reads(method, expr.base, acc)
                if not addressed:
                    acc.extend(self._pointee_targets(method, expr.base))
            else:
                self._expr_reads(method, expr.base, acc, addressed)
            self._expr_reads(method, expr.index, acc)
            return
        if isinstance(expr, ast.FieldAccess):
            self._expr_reads(method, expr.base, acc, addressed)
            return
        for child in ast.child_exprs(expr):
            self._expr_reads(method, child, acc)

    # -- lvalue write targets ------------------------------------------

    def _lvalue_targets(self, method: str, lhs: ast.Expr) -> list[str]:
        if isinstance(lhs, ast.Var):
            return self._abstract_of_var(method, lhs.name)
        if isinstance(lhs, ast.Deref):
            return self._pointee_targets(method, lhs.operand)
        if isinstance(lhs, ast.Index):
            base_t = getattr(lhs.base, "type", None)
            if isinstance(base_t, ty.PtrType):
                return self._pointee_targets(method, lhs.base)
            return self._lvalue_targets(method, lhs.base)
        if isinstance(lhs, ast.FieldAccess):
            return self._lvalue_targets(method, lhs.base)
        return []

    # -- per-step extraction -------------------------------------------

    def run(self) -> AccessMap:
        for pc, steps in self.machine.steps_by_pc.items():
            method = self.machine.pcs[pc].method
            for step in steps:
                self._extract_step(pc, method, step)
        return self.result

    def _add(self, step: Step, pc: str, method: str, kind: str,
             locations: Iterable[str], atomic: bool = False,
             buffered: bool = False) -> None:
        desc = type(step).__name__
        for location in dict.fromkeys(locations):
            self.result.add(step, Access(
                pc, method, kind, location, atomic=atomic,
                buffered=buffered, step_desc=desc,
            ))

    def _reads_of(self, method: str, exprs: Iterable[ast.Expr | None],
                  addressed: bool = False) -> list[str]:
        acc: list[str] = []
        for expr in exprs:
            self._expr_reads(method, expr, acc, addressed)
        return acc

    def _extract_step(self, pc: str, method: str, step: Step) -> None:
        if isinstance(step, AssignStep):
            for lhs in step.lhss:
                self._add(step, pc, method, "write",
                          self._lvalue_targets(method, lhs),
                          buffered=not step.tso_bypass)
            reads = self._reads_of(method, step.lhss, addressed=True)
            reads += self._reads_of(method, step.rhss)
            self._add(step, pc, method, "read", reads)
            return
        if isinstance(step, ExternStep):
            self._extract_extern(pc, method, step)
            return
        if isinstance(step, (SomehowStep, ExternSpecStep)):
            spec = step.spec
            for target in spec.modifies:
                self._add(step, pc, method, "write",
                          self._lvalue_targets(method, target))
            reads = self._reads_of(method, spec.modifies, addressed=True)
            reads += self._reads_of(method, spec.requires)
            reads += self._reads_of(method, spec.ensures)
            if isinstance(step, ExternSpecStep):
                reads += self._reads_of(method, step.args)
            self._add(step, pc, method, "read", reads)
            return
        if isinstance(step, MallocStep):
            self._add(step, pc, method, "write",
                      self._lvalue_targets(method, step.lhs),
                      buffered=True)
            reads = self._reads_of(method, [step.lhs], addressed=True)
            reads += self._reads_of(method, [step.count])
            self._add(step, pc, method, "read", reads)
            return
        if isinstance(step, CreateThreadStep):
            if step.lhs is not None:
                self._add(step, pc, method, "write",
                          self._lvalue_targets(method, step.lhs),
                          buffered=True)
                self._add(step, pc, method, "read",
                          self._reads_of(method, [step.lhs],
                                         addressed=True))
            self._add(step, pc, method, "read",
                      self._reads_of(method, step.args))
            return
        # Branch/Assume/Assert/Call/Join/Return/Dealloc: pure readers.
        self._add(step, pc, method, "read",
                  self._reads_of(method, step.reads_exprs()))

    def _extract_extern(self, pc: str, method: str,
                        step: ExternStep) -> None:
        name = step.name
        if name in MUTEX_EXTERNS or name in RMW_EXTERNS:
            targets = self._pointee_targets(method, step.args[0])
            if name in MUTEX_EXTERNS:
                self.result.mutex_words.update(
                    t for t in targets if ":" not in t
                )
            if name != "initialize_mutex":
                self._add(step, pc, method, "read", targets, atomic=True)
            self._add(step, pc, method, "write", targets, atomic=True)
            reads = self._reads_of(method, step.args)
        else:
            reads = self._reads_of(method, step.args)
        if step.lhs is not None:
            self._add(step, pc, method, "write",
                      self._lvalue_targets(method, step.lhs),
                      buffered=True)
            reads += self._reads_of(method, [step.lhs], addressed=True)
        self._add(step, pc, method, "read", reads)


def extract_accesses(ctx: LevelContext, machine: StateMachine) -> AccessMap:
    """Run the static footprint extraction over a translated level."""
    return _Extractor(ctx, machine).run()


# ---------------------------------------------------------------------------
# Dynamic (concrete) footprints


class ConcreteAccess(FrozenRecord):
    """One leaf-cell access an enabled step would perform.

    ``buffered`` marks writes that go through the firing thread's x86-TSO
    store buffer (plain ``:=`` to a memory place): such a write is
    invisible to every other thread until its drain — the drain, not the
    write, is the conflicting action.  Atomic and ``::=`` stores mutate
    memory directly and are never buffered.
    """

    location: Location
    kind: str  # "read" | "write"
    atomic: bool
    pc: str
    step_desc: str
    buffered: bool = False


def _leaf_locations_of(location: Location, t: ty.Type) -> list[Location]:
    if isinstance(t, ty.ArrayType):
        result: list[Location] = []
        for i in range(t.size):
            result.extend(_leaf_locations_of(location.child(i), t.element))
        return result
    if isinstance(t, ty.StructType):
        result = []
        for i, f in enumerate(t.fields):
            result.extend(_leaf_locations_of(location.child(i), f.type))
        return result
    return [location]


class _FootprintCollector:
    """Evaluates one step's places in one concrete state."""

    def __init__(self, machine: StateMachine, state: ProgramState,
                 tid: int, step: Step, params: dict) -> None:
        self.machine = machine
        self.state = state
        self.tid = tid
        self.step = step
        method = state.thread(tid).top.method
        self.ec = EvalContext(machine.ctx, state, tid, method, params)
        self.out: list[ConcreteAccess] = []

    def _emit(self, place: Any, kind: str, atomic: bool,
              buffered: bool = False) -> None:
        if not isinstance(place, MemoryPlace):
            return
        desc = type(self.step).__name__
        for leaf in _leaf_locations_of(place.location, place.type):
            self.out.append(ConcreteAccess(
                leaf, kind, atomic, self.step.pc, desc,
                buffered=buffered and kind == "write",
            ))

    def _emit_lvalue(self, lhs: ast.Expr | None, kind: str = "write",
                     atomic: bool = False, buffered: bool = False) -> None:
        if lhs is None:
            return
        try:
            place = ev.eval_place(self.ec, lhs)
        except (UBSignal, KeyError, AssertionError):
            return
        self._emit(place, kind, atomic, buffered=buffered)
        self._reads(lhs, addressed=True)

    def _emit_pointer_arg(self, expr: ast.Expr, kinds: tuple[str, ...],
                          atomic: bool = True) -> None:
        try:
            pointer = ev.eval_expr(self.ec, expr)
        except (UBSignal, KeyError):
            return
        if not isinstance(pointer, Pointer):
            return
        for kind in kinds:
            self.out.append(ConcreteAccess(
                pointer.location, kind, atomic, self.step.pc,
                type(self.step).__name__,
            ))

    def _reads(self, expr: ast.Expr | None, addressed: bool = False
               ) -> None:
        """Concrete read cells of *expr* (best effort: UB paths skipped)."""
        if expr is None:
            return
        if isinstance(expr, ast.AddressOf):
            self._reads(expr.operand, addressed=True)
            return
        if isinstance(expr, (ast.Var, ast.Deref, ast.Index,
                             ast.FieldAccess)):
            if isinstance(expr, ast.Deref):
                self._reads(expr.operand)
            elif isinstance(expr, ast.Index):
                self._reads(expr.index)
                base_t = getattr(expr.base, "type", None)
                if isinstance(base_t, ty.PtrType):
                    self._reads(expr.base)
                else:
                    self._reads(expr.base, addressed=True)
            elif isinstance(expr, ast.FieldAccess):
                self._reads(expr.base, addressed=True)
            if addressed:
                return
            try:
                place = ev.eval_place(self.ec, expr)
            except (UBSignal, KeyError, AssertionError):
                return
            self._emit(place, "read", False)
            return
        for child in ast.child_exprs(expr):
            self._reads(child)

    # ------------------------------------------------------------------

    def collect(self) -> list[ConcreteAccess]:
        step = self.step
        if isinstance(step, AssignStep):
            for lhs in step.lhss:
                self._emit_lvalue(lhs, buffered=not step.tso_bypass)
            for rhs in step.rhss:
                self._reads(rhs)
        elif isinstance(step, ExternStep):
            name = step.name
            if name in MUTEX_EXTERNS or name in RMW_EXTERNS:
                kinds = (
                    ("write",) if name == "initialize_mutex"
                    else ("read", "write")
                )
                self._emit_pointer_arg(step.args[0], kinds)
                for arg in step.args[1:]:
                    self._reads(arg)
            else:
                for arg in step.args:
                    self._reads(arg)
            self._emit_lvalue(step.lhs, buffered=True)
        elif isinstance(step, (SomehowStep, ExternSpecStep)):
            spec = step.spec
            for target in spec.modifies:
                self._emit_lvalue(target)
            for expr in list(spec.requires) + list(spec.ensures):
                self._reads(expr)
            if isinstance(step, ExternSpecStep):
                for arg in step.args:
                    self._reads(arg)
        elif isinstance(step, MallocStep):
            self._emit_lvalue(step.lhs, buffered=True)
            self._reads(step.count)
        elif isinstance(step, CreateThreadStep):
            self._emit_lvalue(step.lhs, buffered=True)
            for arg in step.args:
                self._reads(arg)
        elif isinstance(step, CallStep):
            for arg in step.args:
                self._reads(arg)
        else:
            for expr in step.reads_exprs():
                self._reads(expr)
        return self.out


def concrete_footprint(
    machine: StateMachine,
    state: ProgramState,
    tid: int,
    step: Step,
    params: dict,
) -> list[ConcreteAccess]:
    """The leaf cells *step* would touch, fired by *tid* in *state*."""
    thread = state.threads.get(tid)
    if thread is None or not thread.frames:
        return []
    try:
        return _FootprintCollector(machine, state, tid, step,
                                   params).collect()
    except (UBSignal, KeyError):  # pragma: no cover - defensive
        return []
