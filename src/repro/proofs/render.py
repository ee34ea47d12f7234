"""Rendering of state machines into Dafny-like proof preambles.

Every proof Armada generates includes the program-specific state-machine
definitions (§3.2.2): the state datatype, the enumerated PC type, the
step datatype with one constructor per step, and one next-state function
per step type.  We render the same structure; it forms the bulk of the
generated proof text, exactly as in the paper's SLOC accounting.
"""

from __future__ import annotations

from repro.lang import types as ty
from repro.lang.astutil import expr_to_str
from repro.machine.program import StateMachine
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


def step_constructor_name(step: Step) -> str:
    kind = type(step).__name__.removesuffix("Step")
    return f"Step_{kind}_{step.pc.replace('#', '_')}"


def describe_step_effect(step: Step) -> str:
    """A one-line summary of a step's semantics (used in lemma bodies)."""
    if isinstance(step, AssignStep):
        op = "::=" if step.tso_bypass else ":="
        lhs = ", ".join(expr_to_str(e) for e in step.lhss)
        rhs = ", ".join(expr_to_str(e) for e in step.rhss)
        return f"{lhs} {op} {rhs}"
    if isinstance(step, BranchStep):
        cond = "*" if step.cond is None else expr_to_str(step.cond)
        return f"branch {cond} == {str(step.when).lower()}"
    if isinstance(step, AssumeStep):
        return f"assume {expr_to_str(step.cond)}"
    if isinstance(step, AssertStep):
        return f"assert {expr_to_str(step.cond)}"
    if isinstance(step, SomehowStep):
        return "somehow " + " ".join(
            [f"requires {expr_to_str(e)}" for e in step.spec.requires]
            + [f"modifies {expr_to_str(e)}" for e in step.spec.modifies]
            + [f"ensures {expr_to_str(e)}" for e in step.spec.ensures]
        )
    if isinstance(step, CallStep):
        args = ", ".join(expr_to_str(a) for a in step.args)
        return f"call {step.method}({args})"
    if isinstance(step, ReturnStep):
        return "return" + (
            f" {expr_to_str(step.value)}" if step.value else ""
        )
    if isinstance(step, CreateThreadStep):
        args = ", ".join(expr_to_str(a) for a in step.args)
        return f"create_thread {step.method}({args})"
    if isinstance(step, JoinStep):
        return f"join {expr_to_str(step.thread)}"
    if isinstance(step, MallocStep):
        what = "calloc" if step.count is not None else "malloc"
        return f"{what}({step.alloc_type})"
    if isinstance(step, DeallocStep):
        return f"dealloc {expr_to_str(step.ptr)}"
    if isinstance(step, ExternStep):
        args = ", ".join(expr_to_str(a) for a in step.args)
        return f"extern {step.name}({args})"
    if isinstance(step, ExternSpecStep):
        return f"extern-model {step.method_name}"
    return type(step).__name__


def render_type(t: ty.Type) -> str:
    return str(t)


def machine_definitions(machine: StateMachine) -> tuple[str, ...]:
    """The program-specific state-machine module for *machine*, rendered
    once per machine.

    Memoized on the machine, as ``stepc.stepper_for`` is.  The render
    reads the PCs, globals, frames and steps, which translation fixes
    (not ``machine.domains``, which the proof engine replaces).  A
    tuple, so no caller can change what the next one reads.
    """
    cached = machine.__dict__.get("_definitions")
    if cached is None:
        cached = tuple(render_machine_definitions(machine))
        machine.__dict__["_definitions"] = cached
    return cached


def render_machine_definitions(machine: StateMachine) -> list[str]:
    """Render the program-specific state-machine module for *machine*."""
    ctx = machine.ctx
    lines: list[str] = []
    name = machine.level_name
    lines.append(f"// State machine for level {name} (program-specific,")
    lines.append("// one step constructor and one next-function per "
                 "statement).")
    # PC enumeration.
    pc_names = sorted(machine.pcs, key=lambda p: (p.split("#")[0],
                                                  machine.pcs[p].index))
    lines.append(f"datatype PC_{name} =")
    for pc in pc_names:
        info = machine.pcs[pc]
        suffix = "" if info.yieldable else "  // non-yieldable (atomic)"
        lines.append(f"  | PC_{pc.replace('#', '_')}{suffix}")
    # Global-state datatype.
    lines.append(f"datatype Globals_{name} = Globals_{name}(")
    for g in ctx.level.globals:
        kind = "ghost " if g.ghost else ""
        lines.append(f"  {kind}{g.name}: {render_type(g.var_type)},")
    lines.append(")")
    # Per-method stack frames (fields named after program variables,
    # §3.2.2).
    for method_name, mctx in ctx.method_contexts.items():
        if machine.ctx.methods[method_name].is_extern:
            continue
        lines.append(
            f"datatype Frame_{name}_{method_name} = "
            f"Frame_{name}_{method_name}("
        )
        for lname, info in mctx.locals.items():
            lines.append(f"  {lname}: {render_type(info.type)},")
        lines.append(")")
    # Thread + total state.
    lines.append(f"datatype Thread_{name} = Thread_{name}(")
    lines.append(f"  pc: PC_{name},")
    lines.append("  stack: seq<Frame>,")
    lines.append("  storeBuffer: seq<(Location, Value)>,  // x86-TSO")
    lines.append(")")
    lines.append(f"datatype TotalState_{name} = TotalState_{name}(")
    lines.append(f"  threads: map<uint64, Thread_{name}>,")
    lines.append(f"  globals: Globals_{name},")
    lines.append("  heap: Heap,  // immutable forest (sec. 3.2.4)")
    lines.append("  log: seq<uint64>,")
    lines.append("  termination: TerminationKind,")
    lines.append(")")
    # Step datatype: one constructor per step, with its encapsulated
    # nondeterminism as constructor fields (sec. 4.1).
    lines.append(f"datatype Step_{name} =")
    for step in machine.all_steps():
        fields = ", ".join(
            f"{_param_field_name(v.key, i)}: {render_type(v.type)}"
            for i, v in enumerate(step.nondet_vars())
        )
        lines.append(f"  | {step_constructor_name(step)}({fields})")
    # One next-function per step (program-specific semantics).
    for step in machine.all_steps():
        ctor = step_constructor_name(step)
        lines.append(
            f"function NextState_{ctor}(s: TotalState_{name}, tid: uint64, "
            f"step: Step_{name}): TotalState_{name}"
        )
        lines.append("{")
        lines.append(f"  // {describe_step_effect(step)}")
        lines.append(f"  // pc {step.pc} -> {step.target}")
        lines.append("  ApplyStepSemantics(s, tid, step)")
        lines.append("}")
    lines.append(
        f"function NextState_{name}(s: TotalState_{name}, tid: uint64, "
        f"step: Step_{name}): TotalState_{name}"
    )
    lines.append("{")
    lines.append("  match step")
    for step in machine.all_steps():
        ctor = step_constructor_name(step)
        lines.append(f"    case {ctor}(_) => NextState_{ctor}(s, tid, step)")
    lines.append("}")
    return lines


def _param_field_name(key, index: int) -> str:
    if isinstance(key, tuple):
        return "_".join(str(part).replace("#", "_") for part in key
                        if not isinstance(part, int) or True)
    # Expression-nondet keys are id()-based (process-local); naming the
    # field by position keeps the rendered text identical across
    # translations, which content-addressed caching depends on.
    return f"nd_{index}"
