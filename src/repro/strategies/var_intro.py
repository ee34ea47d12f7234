"""The variable-introduction strategy (§4.2.7).

"A pair of programs exhibits the variable-introduction correspondence
if they differ only in that the high-level program has variables (and
assignments to those variables) that do not appear in the low-level
program.  The main use of this is to introduce ghost variables that
abstract the concrete state of the program."

The refinement function maps each low-level state to the high-level
state whose introduced variables take the values dictated by the
introduced assignments; because every matched statement is identical,
the introduced variables cannot influence the pre-existing state, so
the mapping is a simulation by construction.  The generated lemmas are
one per introduced assignment (defining the refinement function's
extension) plus one identity lemma per matched statement pair.
"""

from __future__ import annotations

from repro.errors import StrategyError
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


def introduced_variables(request: ProofRequest) -> set[str]:
    """Global variables present in the high level but not the low."""
    low_names = set(request.low_ctx.globals)
    return {
        name for name in request.high_ctx.globals if name not in low_names
    }


class VarIntroStrategy(Strategy):
    name = "var_intro"

    def generate(self, request: ProofRequest) -> ProofScript:
        script = ProofScript(
            proof_name=request.proof.name,
            strategy=self.name,
            low_level=request.proof.low_level,
            high_level=request.proof.high_level,
        )
        script.preamble.extend(
            machine_definitions(request.high_machine)
        )
        new_vars = introduced_variables(request)
        if not new_vars:
            raise StrategyError(
                "var_intro: the high level introduces no new variables"
            )
        for name in sorted(new_vars):
            decl = request.high_ctx.globals[name]
            if not decl.ghost and not self._is_history_only(request, name):
                # Introduced concrete variables are allowed only if used
                # like ghosts (assigned, never read by old statements).
                raise StrategyError(
                    f"var_intro: introduced variable {name} must be ghost "
                    "or assignment-only"
                )

        introduced_assigns = 0
        for method in self.common_methods(request):
            low_steps = self.ordered_steps(request.low_machine, method)
            high_steps = self.ordered_steps(request.high_machine, method)
            skip_high = lambda s: self._introduced_assign(s, new_vars)
            pairs = self.align_steps(
                low_steps,
                high_steps,
                skip_high=skip_high,
                compatible=skip_aware_compatible(skip_high=skip_high),
            )
            for index, (low, high) in enumerate(pairs):
                if low is None:
                    assert isinstance(high, AssignStep)
                    introduced_assigns += 1
                    script.add(
                        Lemma(
                            name=(
                                f"RefinementFunctionExtension_{method}_"
                                f"{index}"
                            ),
                            statement=(
                                "the refinement function maps the low "
                                "state across the introduced update "
                                f"[{describe_step_effect(high)}]"
                            ),
                            body=[
                                "// introduced-variable update: stutter "
                                "step on the low side,",
                                "// the high side executes "
                                f"[{describe_step_effect(high)}]",
                            ],
                        )
                    )
                    continue
                assert high is not None
                if not steps_identical(low, high):
                    raise StrategyError(
                        "var_intro correspondence fails at "
                        f"{low.pc}: statements differ beyond introduced "
                        "variables"
                    )
                script.add(
                    Lemma(
                        name=f"StatementUnchanged_{method}_{index}",
                        statement=(
                            f"[{describe_step_effect(low)}] is identical "
                            "at both levels"
                        ),
                        body=[
                            "// matched pair: introduced variables do "
                            "not occur here",
                        ],
                        obligation=lambda ok=steps_identical(low, high):
                            bool_verdict(ok),
                    )
                )
        if introduced_assigns == 0:
            raise StrategyError(
                "var_intro: new variables are never assigned; use "
                "weakening instead"
            )
        return script

    @staticmethod
    def _introduced_assign(step: Step, new_vars: set[str]) -> bool:
        """Is *step* an assignment whose every target is introduced?"""
        from repro.strategies.var_hiding import lhs_root

        if not isinstance(step, AssignStep) or not step.lhss:
            return False
        return all(
            (root := lhs_root(lhs)) is not None and root in new_vars
            for lhs in step.lhss
        )

    @staticmethod
    def _is_history_only(request: ProofRequest, name: str) -> bool:
        """A non-ghost introduced variable is acceptable when no matched
        (pre-existing) statement reads it; the aligner enforces that, so
        here we simply allow it."""
        return True
