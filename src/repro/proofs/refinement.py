"""Developer-specified refinement relations (§3.1.3).

"The developer defines what [refinement] means via a refinement
relation (R). ... The developer writes R as an expression parameterized
over the low-level and high-level states."

A recipe may carry a ``relation "<expr>"`` directive.  Inside the
expression, ``low_<name>`` / ``high_<name>`` denote the value of global
(or ghost) variable ``<name>`` in the respective state, and ``low_log``
/ ``high_log`` denote the console logs (as ghost sequences).  Example::

    proof P {
      refinement Impl Spec
      weakening
      relation "low_log == high_log && low_count <= high_count"
    }

The engine conjoins the UB conjunct of §3.2.3 automatically, exactly as
for the default relation, and uses R for whole-program validation.
Transitivity of the written relation is the developer's obligation
(§3.1.3); the toolchain does not check it.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.errors import ProofFailure
from repro.lang import asts as ast
from repro.lang.astutil import free_vars
from repro.lang.parser import parse_expression
from repro.lang.resolver import LevelContext
from repro.machine.evaluator import eval_formula
from repro.machine.state import ProgramState, UBSignal
from repro.machine.values import CompositeValue, Root

RefinementRelation = Callable[[ProgramState, ProgramState], bool]


def _global_value(
    ctx: LevelContext, state: ProgramState, name: str
) -> Any:
    """Fetch a global/ghost variable's value from *state* (globals read
    from memory — drained values only, the externally visible state)."""
    decl = ctx.globals.get(name)
    if decl is None:
        raise ProofFailure(f"refinement relation names unknown global "
                           f"{name}")
    if decl.ghost:
        return state.ghosts.get(name)
    root = Root("global", name)
    from repro.machine.values import leaf_locations

    leaves = leaf_locations(root, decl.var_type)
    if len(leaves) == 1:
        return state.memory.get(leaves[0][0])
    return CompositeValue(tuple(
        state.memory.get(loc) for loc, _ in leaves
    ))


def build_relation(
    text: str,
    low_ctx: LevelContext,
    high_ctx: LevelContext,
) -> RefinementRelation:
    """Compile a ``relation`` directive into an executable R."""
    expr = parse_expression(text)
    names = free_vars(expr)
    plan: list[tuple[str, str, str]] = []  # (var, side, global name)
    for name in sorted(names):
        if name == "low_log":
            plan.append((name, "low", "$log"))
        elif name == "high_log":
            plan.append((name, "high", "$log"))
        elif name.startswith("low_"):
            plan.append((name, "low", name[4:]))
        elif name.startswith("high_"):
            plan.append((name, "high", name[5:]))
        else:
            raise ProofFailure(
                f"refinement relation variable {name!r} must be "
                "prefixed with low_ or high_"
            )
    # Validate the named globals exist up front.
    for _, side, gname in plan:
        if gname == "$log":
            continue
        ctx = low_ctx if side == "low" else high_ctx
        if gname not in ctx.globals:
            raise ProofFailure(
                f"refinement relation names unknown {side}-level "
                f"global {gname}"
            )

    def relation(low: ProgramState, high: ProgramState) -> bool:
        env: dict[str, Any] = {}
        for var, side, gname in plan:
            state = low if side == "low" else high
            ctx = low_ctx if side == "low" else high_ctx
            if gname == "$log":
                env[var] = tuple(state.log)
            else:
                env[var] = _global_value(ctx, state, gname)
        try:
            return bool(eval_formula(expr, env))
        except (KeyError, UBSignal):
            return False

    return relation


def relation_from_recipe(
    proof: ast.ProofDecl,
    low_ctx: LevelContext,
    high_ctx: LevelContext,
) -> RefinementRelation | None:
    """The recipe's ``relation`` directive compiled to R, or None."""
    items = proof.directives("relation")
    if not items:
        return None
    if not items[0].args:
        raise ProofFailure("relation directive requires an expression")
    return build_relation(items[0].args[0], low_ctx, high_ctx)
