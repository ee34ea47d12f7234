"""Per-statement behaviour subsumption: does the high-level statement
admit a superset of the low-level statement's behaviours (§4.2.4)?

The checker returns a :class:`SubsumptionPlan` describing how the lemma
for the pair is discharged:

* ``trivial`` — the steps are structurally identical;
* ``nondet`` — the high-level side replaces expressions with ``*``
  (its witness is the low-level expression, §4.2.5);
* ``prover`` — the sides differ but a bounded-prover obligation shows
  the low behaviour is contained (e.g. ``x & 1`` vs ``x % 2``);
* ``somehow`` — the high side is a declarative ``somehow`` covering the
  low assignment, proved by substituting the low effect into the
  postconditions;
* ``global`` — the pair is beyond local reasoning (pointer-heavy or
  customized); the engine discharges it with a whole-program bounded
  refinement check, recording the lemma customization.

A :class:`repro.errors.StrategyError` means the programs simply do not
exhibit the weakening correspondence.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import StrategyError
from repro.lang import asts as ast
from repro.lang import types as ty
from repro.lang.astutil import expr_equal, expr_to_str, free_vars, substitute
from repro.lang.resolver import LevelContext
from repro.machine.steps import (
    AssertStep,
    AssignStep,
    AssumeStep,
    BranchStep,
    SomehowStep,
    Step,
)
from repro.record import Fresh, Record
from repro.strategies.base import ProofRequest
from repro.verifier.prover import Verdict


class SubsumptionPlan(Record):
    kind: str  # trivial | nondet | prover | somehow | global
    description: str
    obligation: Callable[[], Verdict] | None = None
    witnesses: list[str] = Fresh(list)


def steps_identical(low: Step, high: Step) -> bool:
    """Structural identity of two steps (same kind, same expressions)."""
    if type(low) is not type(high):
        return False
    if isinstance(low, AssignStep):
        return (
            low.tso_bypass == high.tso_bypass
            and len(low.lhss) == len(high.lhss)
            and len(low.rhss) == len(high.rhss)
            and all(expr_equal(a, b) for a, b in zip(low.lhss, high.lhss))
            and all(expr_equal(a, b) for a, b in zip(low.rhss, high.rhss))
        )
    if isinstance(low, BranchStep):
        return low.when == high.when and expr_equal(low.cond, high.cond)
    if isinstance(low, (AssumeStep, AssertStep)):
        return expr_equal(low.cond, high.cond)
    if isinstance(low, SomehowStep):
        return _spec_equal(low.spec, high.spec)
    # Calls, returns, allocation, externs: compare their expression lists.
    low_exprs = low.reads_exprs()
    high_exprs = high.reads_exprs()
    if len(low_exprs) != len(high_exprs):
        return False
    if not all(expr_equal(a, b) for a, b in zip(low_exprs, high_exprs)):
        return False
    for attr in ("method", "name", "method_name", "result_local",
                 "alloc_type"):
        if getattr(low, attr, None) != getattr(high, attr, None):
            return False
    return True


def _spec_equal(a: ast.SomehowSpec, b: ast.SomehowSpec) -> bool:
    return (
        len(a.requires) == len(b.requires)
        and len(a.modifies) == len(b.modifies)
        and len(a.ensures) == len(b.ensures)
        and all(expr_equal(x, y) for x, y in zip(a.requires, b.requires))
        and all(expr_equal(x, y) for x, y in zip(a.modifies, b.modifies))
        and all(expr_equal(x, y) for x, y in zip(a.ensures, b.ensures))
    )


# ---------------------------------------------------------------------------


def _variable_types(
    exprs: list[ast.Expr], ctx: LevelContext, method: str
) -> dict[str, ty.Type] | None:
    """Types of the free variables of *exprs*; None if any variable has a
    type the bounded prover cannot sample (pointers into the heap)."""
    result: dict[str, ty.Type] = {}
    for expr in exprs:
        for name in free_vars(expr):
            info = ctx.local(method, name)
            if info is not None:
                result[name] = info.type
                continue
            g = ctx.globals.get(name)
            if g is not None:
                result[name] = g.var_type
                continue
            return None
    for t in result.values():
        if isinstance(t, (ty.PtrType, ty.StructType, ty.ArrayType)):
            return None
    return result


def _formula_friendly(exprs: list[ast.Expr]) -> bool:
    """Whether the formula evaluator can evaluate these expressions: a
    formula has no heap, and no pre-state for ``old()`` to read."""
    for expr in exprs:
        for node in ast.walk_expr(expr):
            if isinstance(
                node,
                (ast.AddressOf, ast.Deref, ast.FieldAccess, ast.Nondet,
                 ast.Allocated, ast.AllocatedArray, ast.MetaVar, ast.Old),
            ):
                return False
            if isinstance(node, ast.Index):
                return False
    return True


def assume_hypotheses(request: ProofRequest, low: Step) -> list[ast.Expr]:
    """Enabling conditions cemented immediately before *low* (§4.2.2):
    any assume step targeting this PC gates the statement, so its
    condition may serve as a hypothesis in the local lemma."""
    hypotheses = []
    for step in request.low_machine.all_steps():
        if isinstance(step, AssumeStep) and step.target == low.pc:
            hypotheses.append(step.cond)
    return hypotheses


def check_subsumption(
    low: Step, high: Step, request: ProofRequest, allow_nondet: bool
) -> SubsumptionPlan:
    """Build the discharge plan for one aligned step pair."""
    if steps_identical(low, high):
        return SubsumptionPlan("trivial", "statements are identical")

    method = request.low_machine.pcs[low.pc].method
    prover = request.prover

    if isinstance(low, AssignStep) and isinstance(high, AssignStep):
        return _assign_vs_assign(low, high, request, method, allow_nondet)
    if isinstance(low, BranchStep) and isinstance(high, BranchStep):
        if low.when != high.when:
            raise StrategyError("branch directions disagree")
        if high.cond is None:
            if not allow_nondet:
                raise StrategyError(
                    "guard weakened to *: use the nondet_weakening strategy"
                )
            witness = (
                "true" if low.cond is None else expr_to_str(low.cond)
            )
            return SubsumptionPlan(
                "nondet",
                "high-level guard is the nondeterministic choice *",
                witnesses=[f"guard witness := {witness}"],
            )
        if low.cond is None:
            raise StrategyError(
                "low-level nondet guard cannot refine a concrete guard"
            )
        return _equivalence_plan(
            low.cond, high.cond, request, method, "guard"
        )
    if isinstance(low, AssumeStep) and isinstance(high, AssumeStep):
        return _implication_plan(low.cond, high.cond, request, method)
    if isinstance(low, AssertStep) and isinstance(high, AssertStep):
        return _equivalence_plan(
            low.cond, high.cond, request, method, "assertion"
        )
    if isinstance(low, AssignStep) and isinstance(high, SomehowStep):
        return _assign_vs_somehow(low, high, request, method)
    if isinstance(low, SomehowStep) and isinstance(high, SomehowStep):
        return _somehow_vs_somehow(low, high, request, method)
    from repro.machine.steps import ExternStep

    if isinstance(low, ExternStep) and isinstance(high, ExternStep):
        return _extern_vs_extern(low, high, request, method)
    raise StrategyError(
        f"no subsumption rule for {type(low).__name__} vs "
        f"{type(high).__name__}"
    )


def _assign_vs_assign(
    low: AssignStep, high: AssignStep, request: ProofRequest, method: str,
    allow_nondet: bool,
) -> SubsumptionPlan:
    if low.tso_bypass != high.tso_bypass:
        raise StrategyError(
            "assignment memory-ordering differs: use the tso_elim strategy"
        )
    if len(low.lhss) != len(high.lhss) or not all(
        expr_equal(a, b) for a, b in zip(low.lhss, high.lhss)
    ):
        raise StrategyError("assignment targets differ")
    if len(low.rhss) != len(high.rhss):
        raise StrategyError("assignment arity differs")
    witnesses: list[str] = []
    obligations: list[tuple[ast.Expr, ast.Expr]] = []
    for low_rhs, high_rhs in zip(low.rhss, high.rhss):
        if isinstance(high_rhs, ast.Nondet):
            if not allow_nondet:
                raise StrategyError(
                    "value weakened to *: use the nondet_weakening strategy"
                )
            witnesses.append(f"value witness := {expr_to_str(low_rhs)}")
            continue
        if expr_equal(low_rhs, high_rhs):
            continue
        obligations.append((low_rhs, high_rhs))
    if not obligations:
        kind = "nondet" if witnesses else "trivial"
        return SubsumptionPlan(kind, "assignment pair", witnesses=witnesses)
    all_exprs = [e for pair in obligations for e in pair]
    variables = _variable_types(all_exprs, request.low_ctx, method)
    if variables is None or not _formula_friendly(all_exprs):
        return SubsumptionPlan(
            "global",
            "assignment pair is beyond local reasoning "
            "(heap-dependent); discharged by whole-program refinement",
        )

    def obligation() -> Verdict:
        for low_rhs, high_rhs in obligations:
            verdict = request.prover.equivalent(low_rhs, high_rhs, variables)
            if not verdict.ok:
                return verdict
        return Verdict("proved")

    description = "; ".join(
        f"{expr_to_str(a)} == {expr_to_str(b)}" for a, b in obligations
    )
    return SubsumptionPlan("prover", description, obligation, witnesses)


def _equivalence_plan(
    low_cond: ast.Expr, high_cond: ast.Expr, request: ProofRequest,
    method: str, what: str,
) -> SubsumptionPlan:
    exprs = [low_cond, high_cond]
    variables = _variable_types(exprs, request.low_ctx, method)
    if variables is None or not _formula_friendly(exprs):
        return SubsumptionPlan(
            "global",
            f"{what} equivalence is heap-dependent; discharged by "
            "whole-program refinement",
        )

    def obligation() -> Verdict:
        return request.prover.equivalent(low_cond, high_cond, variables)

    return SubsumptionPlan(
        "prover",
        f"{what}: {expr_to_str(low_cond)} <==> {expr_to_str(high_cond)}",
        obligation,
    )


def _implication_plan(
    low_cond: ast.Expr, high_cond: ast.Expr, request: ProofRequest,
    method: str,
) -> SubsumptionPlan:
    exprs = [low_cond, high_cond]
    variables = _variable_types(exprs, request.low_ctx, method)
    goal = ast.Binary("==>", low_cond, high_cond)
    goal.type = ty.BOOL
    if variables is None or not _formula_friendly(exprs):
        return SubsumptionPlan(
            "global",
            "assume-weakening is heap-dependent; discharged by "
            "whole-program refinement",
        )

    def obligation() -> Verdict:
        return request.prover.prove_valid(goal, variables)

    return SubsumptionPlan(
        "prover",
        f"{expr_to_str(low_cond)} ==> {expr_to_str(high_cond)}",
        obligation,
    )


def two_state_substitute(
    expr: ast.Expr, post_map: dict[str, ast.Expr]
) -> ast.Expr:
    """Turn a two-state predicate into a one-state goal: ``old(e)``
    becomes *e* over pre-state variables, and plain occurrences of the
    modified variables become their assigned expressions."""
    if isinstance(expr, ast.Old):
        return expr.operand
    if isinstance(expr, ast.Var):
        replacement = post_map.get(expr.name)
        return replacement if replacement is not None else expr
    children = ast.child_exprs(expr)
    if not children:
        return expr
    new_children = [two_state_substitute(c, post_map) for c in children]
    if all(n is o for n, o in zip(new_children, children)):
        return expr
    from repro.lang.astutil import _rebuild

    return _rebuild(expr, new_children)


def _assign_vs_somehow(
    low: AssignStep, high: SomehowStep, request: ProofRequest, method: str
) -> SubsumptionPlan:
    modified_names = []
    for target in high.spec.modifies:
        if not isinstance(target, ast.Var):
            return SubsumptionPlan(
                "global",
                "somehow modifies a heap location; discharged by "
                "whole-program refinement",
            )
        modified_names.append(target.name)
    post_map: dict[str, ast.Expr] = {
        name: ast.Var(name) for name in modified_names
    }
    for lhs, rhs in zip(low.lhss, low.rhss):
        if not isinstance(lhs, ast.Var):
            return SubsumptionPlan(
                "global",
                "assignment target is a heap location; discharged by "
                "whole-program refinement",
            )
        if lhs.name not in modified_names:
            raise StrategyError(
                f"somehow does not cover assigned variable {lhs.name}"
            )
        post_map[lhs.name] = rhs
    goals = [
        two_state_substitute(e, post_map) for e in high.spec.ensures
    ]
    relevant = goals + list(low.rhss)
    variables = _variable_types(relevant, request.low_ctx, method)
    if variables is None or not _formula_friendly(relevant):
        return SubsumptionPlan(
            "global",
            "somehow postcondition is heap-dependent; discharged by "
            "whole-program refinement",
        )

    def obligation() -> Verdict:
        for goal in goals:
            goal.type = ty.BOOL
            verdict = request.prover.prove_valid(goal, variables)
            if not verdict.ok:
                return verdict
        return Verdict("proved")

    return SubsumptionPlan(
        "somehow",
        "assignment effect satisfies the somehow postconditions: "
        + "; ".join(expr_to_str(g) for g in goals),
        obligation,
        witnesses=[
            f"havoc witness {n} := {expr_to_str(post_map[n])}"
            for n in modified_names
        ],
    )


def _extern_vs_extern(
    low, high, request: ProofRequest, method: str
) -> SubsumptionPlan:
    """Two calls to the same external method with differing arguments.

    The canonical use is re-expressing an observable output (the Queue
    case study logs via the abstract ghost queue instead of the concrete
    ring).  Argument equality is proved locally when the bounded prover
    can sample the arguments; otherwise the pair is discharged by the
    whole-program refinement check (the console logs must still agree).
    """
    if low.name != high.name or len(low.args) != len(high.args):
        raise StrategyError(
            f"extern calls differ: {low.name} vs {high.name}"
        )
    differing = [
        (a, b)
        for a, b in zip(low.args, high.args)
        if not expr_equal(a, b)
    ]
    # Enabling conditions cemented just before the call are hypotheses
    # (§4.2.2: cemented invariants let local lemmas relate the values).
    hypotheses = assume_hypotheses(request, low)
    all_exprs = [e for pair in differing for e in pair] + hypotheses
    variables = _variable_types(all_exprs, request.low_ctx, method)
    if variables is None or not _formula_friendly(all_exprs):
        return SubsumptionPlan(
            "global",
            f"extern {low.name} argument equality is state-dependent; "
            "discharged by whole-program refinement (log agreement)",
        )

    def obligation() -> Verdict:
        for a, b in differing:
            goal = ast.Binary("==", a, b)
            goal.type = ty.BOOL
            verdict = request.prover.prove_valid(
                goal, variables, hypotheses
            )
            if not verdict.ok:
                return verdict
        return Verdict("proved")

    description = "; ".join(
        f"{expr_to_str(a)} == {expr_to_str(b)}" for a, b in differing
    ) + (
        " under cemented conditions "
        + "; ".join(expr_to_str(h) for h in hypotheses)
        if hypotheses
        else ""
    )
    return SubsumptionPlan("prover", description, obligation)


def _somehow_vs_somehow(
    low: SomehowStep, high: SomehowStep, request: ProofRequest, method: str
) -> SubsumptionPlan:
    low_mods = {expr_to_str(e) for e in low.spec.modifies}
    high_mods = {expr_to_str(e) for e in high.spec.modifies}
    if not low_mods <= high_mods:
        raise StrategyError(
            f"high-level somehow must modify at least {sorted(low_mods)}"
        )
    exprs = list(low.spec.ensures) + list(high.spec.ensures)
    variables = _variable_types(exprs, request.low_ctx, method)
    # A low behaviour changes only the variables the low somehow
    # modifies, so old(e) is e with each of those renamed to a distinct
    # pre-variable: old(y + z) is old$y + z when y alone is modified.
    # A heap target leaves the frame unknown; its old() stays, and
    # _formula_friendly sends the pair to the whole-program check.
    if variables is not None and all(
        isinstance(e, ast.Var) for e in low.spec.modifies
    ):
        pre = {
            e.name: ast.Var(f"old${e.name}", type=variables[e.name])
            for e in low.spec.modifies
            if e.name in variables
        }
        exprs = [_pre_state(e, pre) for e in exprs]
        used = set().union(*map(free_vars, exprs))
        variables.update(
            {v.name: v.type for v in pre.values() if v.name in used}
        )
    if variables is None or not _formula_friendly(exprs):
        return SubsumptionPlan(
            "global",
            "somehow-pair comparison is heap-dependent; discharged by "
            "whole-program refinement",
        )
    hypothesis = _conjoin(exprs[: len(low.spec.ensures)])
    goal = _conjoin(exprs[len(low.spec.ensures):])

    def obligation() -> Verdict:
        return request.prover.prove_valid(goal, variables, [hypothesis])

    return SubsumptionPlan(
        "prover",
        f"{expr_to_str(hypothesis)} ==> {expr_to_str(goal)}",
        obligation,
    )


def _pre_state(expr: ast.Expr, pre: dict[str, ast.Var]) -> ast.Expr:
    """*expr* with every ``old(e)`` replaced by *e* over the
    pre-variables *pre* (``old(old(e))`` is ``old(e)``)."""
    if isinstance(expr, ast.Old):
        return substitute(_pre_state(expr.operand, pre), pre)
    if isinstance(expr, ast.Quantifier):
        inner = {k: v for k, v in pre.items() if k != expr.boundvar}
        body = _pre_state(expr.body, inner)
        if body is expr.body:
            return expr
        return ast.Quantifier(expr.kind, expr.boundvar, expr.boundtype,
                              body, loc=expr.loc, type=expr.type)
    children = ast.child_exprs(expr)
    new_children = [_pre_state(c, pre) for c in children]
    if all(n is o for n, o in zip(new_children, children)):
        return expr
    from repro.lang.astutil import _rebuild

    return _rebuild(expr, new_children)


def _conjoin(exprs: list[ast.Expr]) -> ast.Expr:
    if not exprs:
        true = ast.BoolLit(True)
        true.type = ty.BOOL
        return true
    result = exprs[0]
    for expr in exprs[1:]:
        result = ast.Binary("&&", result, expr)
        result.type = ty.BOOL
    return result
