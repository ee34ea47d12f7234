"""Synthesis of candidate ``tso_elim`` ownership predicates.

The TSO-elimination strategy (§4.2.3) needs a developer-supplied
ownership predicate; a wrong one only surfaces as a failed lemma deep
in the proof chain.  This module turns the analyzer's verdicts into
candidates up front: a ``LOCK_PROTECTED(m)`` location gets
``"m == $me"`` — the thread holding the mutex owns the location (the
lock word stores the owning tid, so this is exactly the paper's
running-example predicate).

Every suggestion is validated **dynamically** against the bounded
explorer before being offered: we replay the three tso_elim ownership
obligations (exclusivity, access-requires-ownership,
release-implies-drained) over the reachable states, so a statically
plausible but wrong candidate is never suggested.
"""

from __future__ import annotations


from repro.lang import asts as ast
from repro.lang import types as ty
from repro.lang.parser import parse_expression
from repro.lang.resolver import LevelContext
from repro.lang.typechecker import TypeChecker
from repro.machine.evaluator import EvalContext, eval_expr
from repro.machine.program import StateMachine
from repro.machine.state import ProgramState, UBSignal

from repro.analysis.accesses import AccessMap
from repro.analysis.robustness import Classification, LocationVerdict
from repro.record import Record


class OwnershipSuggestion(Record):
    """A candidate recipe line for one location."""

    location: str
    predicate: str
    rationale: str
    validated: bool = False
    validation_note: str = ""

    def describe(self) -> str:
        status = "validated" if self.validated else "NOT validated"
        return (
            f'{self.location}: tso_elim {self.location} '
            f'"{self.predicate}"  ({status}: {self.validation_note})'
        )


def _parse_predicate(ctx: LevelContext, text: str) -> ast.Expr:
    expr = parse_expression(text)
    TypeChecker(ctx)._check_expr(expr, None, ty.BOOL, two_state=False)
    return expr


def _eval_for_thread(
    ctx: LevelContext,
    machine: StateMachine,
    predicate: ast.Expr,
    state: ProgramState,
    tid: int,
) -> bool | None:
    thread = state.threads.get(tid)
    method = (
        thread.top.method
        if thread is not None and thread.frames
        else machine.main_method
    )
    ec = EvalContext(ctx, state, tid, method)
    try:
        return bool(eval_expr(ec, predicate))
    except (UBSignal, KeyError):
        return None


def validate_predicate(
    ctx: LevelContext,
    machine: StateMachine,
    access_map: AccessMap,
    varname: str,
    predicate_text: str,
    max_states: int = 200_000,
    compiled: bool = True,
) -> tuple[bool, str]:
    """Replay the tso_elim ownership obligations over the bounded state
    space.  Returns (ok, note); a hit state budget fails validation."""
    from repro.explore.explorer import Explorer

    try:
        predicate = _parse_predicate(ctx, predicate_text)
    except Exception as error:
        return False, f"does not parse/typecheck: {error}"

    touching_pcs = {
        a.pc for a in access_map.by_location.get(varname, [])
        if not a.atomic
    }
    failure: list[str] = []

    def visit(state: ProgramState, transitions) -> bool:
        if not state.running:
            return True
        owners = []
        for tid in state.threads.keys():
            thread = state.threads[tid]
            if _eval_for_thread(ctx, machine, predicate, state, tid):
                owners.append(tid)
            if (
                thread.pc in touching_pcs
                and not thread.terminated
                and (state.atomic_owner in (None, tid))
                and not _eval_for_thread(
                    ctx, machine, predicate, state, tid
                )
            ):
                failure.append(
                    f"t{tid} can access {varname} at {thread.pc} "
                    "without satisfying the predicate"
                )
                return False
        if len(owners) > 1:
            failure.append(
                f"threads {owners} satisfy the predicate simultaneously"
            )
            return False
        return True

    complete = Explorer(
        machine, max_states, compiled=compiled
    ).walk(visit)
    if failure:
        return False, failure[0]
    if not complete:
        return False, "state budget exhausted before full validation"
    return True, (
        "exclusive ownership and access discipline hold over the "
        "bounded state space"
    )


def suggest_ownership(
    ctx: LevelContext,
    machine: StateMachine,
    access_map: AccessMap,
    verdicts: dict[str, LocationVerdict],
    max_states: int = 200_000,
    compiled: bool = True,
) -> list[OwnershipSuggestion]:
    """Candidate tso_elim predicates for every eliminable location."""
    suggestions: list[OwnershipSuggestion] = []
    for name, verdict in sorted(verdicts.items()):
        if verdict.classification is Classification.LOCK_PROTECTED:
            for mutex in verdict.locks:
                text = f"{mutex} == $me"
                ok, note = validate_predicate(
                    ctx, machine, access_map, name, text, max_states,
                    compiled=compiled,
                )
                suggestions.append(OwnershipSuggestion(
                    location=name,
                    predicate=text,
                    rationale=f"every access holds mutex {mutex}",
                    validated=ok,
                    validation_note=note,
                ))
                if ok:
                    break
    return suggestions
