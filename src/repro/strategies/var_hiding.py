"""The variable-hiding strategy (§4.2.8).

"A pair of programs ⟨L, H⟩ exhibits the variable-hiding correspondence
if ⟨H, L⟩ exhibits the variable-introduction correspondence.  In other
words, the high-level program H has fewer variables than the low-level
program L, and L only uses those variables in assignments to them."

Once a developer has introduced ghost abstractions and weakened the
program logic onto them, hiding erases the now-unreferenced concrete
variables (§4.2.7's "Once program logic no longer depends on a concrete
variable, the developer can hide it").
"""

from __future__ import annotations

from repro.errors import StrategyError
from repro.lang import asts as ast
from repro.machine.steps import AssignStep, Step
from repro.proofs.artifacts import Lemma, ProofScript, bool_verdict
from repro.proofs.render import (
    describe_step_effect,
    machine_definitions,
)
from repro.strategies.base import (
    ProofRequest,
    Strategy,
    skip_aware_compatible,
)
from repro.strategies.subsumption import steps_identical


def hidden_variables(request: ProofRequest) -> set[str]:
    """Global variables present in the low level but not the high."""
    high_names = set(request.high_ctx.globals)
    return {
        name for name in request.low_ctx.globals if name not in high_names
    }


class VarHidingStrategy(Strategy):
    name = "var_hiding"

    def generate(self, request: ProofRequest) -> ProofScript:
        script = ProofScript(
            proof_name=request.proof.name,
            strategy=self.name,
            low_level=request.proof.low_level,
            high_level=request.proof.high_level,
        )
        script.preamble.extend(
            machine_definitions(request.low_machine)
        )
        hidden = hidden_variables(request)
        if not hidden:
            raise StrategyError(
                "var_hiding: the high level hides no variables"
            )

        hidden_assigns = 0
        for method in self.common_methods(request):
            low_steps = self.ordered_steps(request.low_machine, method)
            high_steps = self.ordered_steps(request.high_machine, method)
            skip_low = lambda s: self._hidden_assign(s, hidden)
            pairs = self.align_steps(
                low_steps,
                high_steps,
                skip_low=skip_low,
                compatible=skip_aware_compatible(skip_low=skip_low),
            )
            for index, (low, high) in enumerate(pairs):
                if high is None:
                    assert isinstance(low, AssignStep)
                    hidden_assigns += 1
                    script.add(
                        Lemma(
                            name=f"HiddenUpdateStutters_{method}_{index}",
                            statement=(
                                "the hidden update "
                                f"[{describe_step_effect(low)}] maps to a "
                                "stuttering step of the high level"
                            ),
                            body=[
                                "// the update touches only hidden "
                                "variables, which the",
                                "// refinement function erases",
                            ],
                        )
                    )
                    continue
                assert low is not None
                if not steps_identical(low, high):
                    raise StrategyError(
                        f"var_hiding correspondence fails at {low.pc}: "
                        "statements differ beyond hidden variables"
                    )
                # "L only uses those variables in assignments to them":
                # a matched (surviving) statement must not read them.
                reads = self._reads_hidden(low, hidden)
                if reads:
                    raise StrategyError(
                        f"var_hiding: statement at {low.pc} still reads "
                        f"hidden variable(s) {sorted(reads)}; weaken the "
                        "program logic off them first (sec. 4.2.7)"
                    )
                script.add(
                    Lemma(
                        name=f"StatementUnchanged_{method}_{index}",
                        statement=(
                            f"[{describe_step_effect(low)}] is identical "
                            "at both levels and reads no hidden variable"
                        ),
                        body=["// matched pair survives the hiding"],
                        obligation=lambda ok=not reads: bool_verdict(ok),
                    )
                )
        if hidden_assigns == 0:
            raise StrategyError(
                "var_hiding: hidden variables are never assigned in the "
                "low level; nothing to erase"
            )
        return script

    @staticmethod
    def _hidden_assign(step: Step, hidden: set[str]) -> bool:
        if not isinstance(step, AssignStep) or not step.lhss:
            return False
        return all(
            (root := lhs_root(lhs)) is not None and root in hidden
            for lhs in step.lhss
        )

    @staticmethod
    def _reads_hidden(step: Step, hidden: set[str]) -> set[str]:
        """Hidden variables *read* by the step.  The root of an
        assignment target does not count as a read (writing
        ``elements[wi]`` does not read ``elements``), but index
        expressions and right-hand sides do."""
        found: set[str] = set()
        exprs: list[ast.Expr]
        if isinstance(step, AssignStep):
            exprs = list(step.rhss)
            for lhs in step.lhss:
                exprs.extend(_lhs_read_parts(lhs))
        else:
            exprs = step.reads_exprs()
        for expr in exprs:
            for node in ast.walk_expr(expr):
                if isinstance(node, ast.Var) and node.name in hidden:
                    found.add(node.name)
        return found


def lhs_root(expr: ast.Expr) -> str | None:
    """The root variable of an assignment target (peeling array
    indexing, field access, and dereferences of a named pointer)."""
    while isinstance(expr, (ast.Index, ast.FieldAccess)):
        expr = expr.base
    if isinstance(expr, ast.Var):
        return expr.name
    return None


def _lhs_read_parts(expr: ast.Expr) -> list[ast.Expr]:
    """Subexpressions of an lvalue that constitute *reads* (index
    expressions and dereferenced pointers), excluding the written root."""
    parts: list[ast.Expr] = []
    while isinstance(expr, (ast.Index, ast.FieldAccess)):
        if isinstance(expr, ast.Index):
            parts.append(expr.index)
        expr = expr.base
    if isinstance(expr, ast.Deref):
        parts.append(expr.operand)
    return parts
