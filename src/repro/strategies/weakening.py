"""The weakening strategy (§4.2.4) and its nondeterministic variant
(§4.2.5).

Two programs exhibit the *weakening correspondence* if they match except
for certain statements where the high-level version admits a superset of
behaviours of the low-level version.  "The strategy generates a lemma
for each statement in the low-level program proving that, considered in
isolation, it exhibits a subset of behaviors of the corresponding
statement of the high-level program."

*Non-deterministic weakening* is the special case where the high-level
transition's nondeterminism is an existentially-quantified variable
(e.g. a guard replaced by ``*``): "Proving non-deterministic weakening
requires demonstrating a witness for the existentially-quantified
variable.  Our strategy uses various heuristics to identify this
witness" — the witness is the low-level expression itself, recorded in
the lemma body.
"""

from __future__ import annotations

from repro.errors import StrategyError
from repro.proofs.artifacts import Lemma, ProofScript
from repro.proofs.render import (
    describe_step_effect,
    machine_definitions,
    step_constructor_name,
)
from repro.strategies.base import ProofRequest, Strategy
from repro.strategies.subsumption import check_subsumption


class WeakeningStrategy(Strategy):
    """Weakening: statement-by-statement behaviour-subset lemmas."""

    name = "weakening"
    allow_nondet = False

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
        script.preamble.extend(
            machine_definitions(request.high_machine)
        )
        used_nondet = False
        allow_swaps = request.proof.has_directive("use_regions")
        for method in self.common_methods(request):
            low_steps = self.ordered_steps(request.low_machine, method)
            high_steps = self.ordered_steps(
                request.high_machine, method
            )
            items = self._align_with_swaps(
                low_steps, high_steps, allow_swaps
            )
            for index, item in enumerate(items):
                if item[0] == "swap":
                    _, low_pair, high_pair = item
                    script.add(
                        self._swap_lemma(
                            request, method, index, low_pair, high_pair
                        )
                    )
                    continue
                _, low, high = item
                plan = check_subsumption(
                    low, high, request, allow_nondet=self.allow_nondet
                )
                if plan.kind == "nondet":
                    used_nondet = True
                lemma = Lemma(
                    name=f"Statement_{method}_{index}_Weakens",
                    statement=(
                        "forall s, tid, step :: behaviors of "
                        f"[{describe_step_effect(low)}] are a subset of "
                        f"behaviors of [{describe_step_effect(high)}]"
                    ),
                    body=self._lemma_body(low, high, plan),
                    obligation=plan.obligation,
                )
                if plan.kind == "global":
                    script.global_checks.append(
                        f"{lemma.name}: {plan.description}"
                    )
                script.add(lemma)
        self._check_nondet_usage(used_nondet)
        return script

    # ------------------------------------------------------------------
    # statement reordering justified by alias analysis (§6.2)

    def _align_with_swaps(self, low_steps, high_steps, allow_swaps):
        """Pair the step lists, detecting adjacent transpositions
        (``*p := a; *q := b`` vs ``*q := b; *p := a``) when the recipe
        enables region reasoning."""
        from repro.strategies.subsumption import steps_identical

        items = []
        i = j = 0
        while i < len(low_steps) or j < len(high_steps):
            low = low_steps[i] if i < len(low_steps) else None
            high = high_steps[j] if j < len(high_steps) else None
            if low is None or high is None:
                raise StrategyError(
                    "weakening: step counts disagree between the levels"
                )
            if (
                allow_swaps
                and not steps_identical(low, high)
                and i + 1 < len(low_steps)
                and j + 1 < len(high_steps)
                and steps_identical(low, high_steps[j + 1])
                and steps_identical(low_steps[i + 1], high)
            ):
                items.append(
                    ("swap", (low, low_steps[i + 1]),
                     (high, high_steps[j + 1]))
                )
                i += 2
                j += 2
                continue
            if not self._compatible(low, high):
                from repro.strategies.base import _describe

                raise StrategyError(
                    "programs do not exhibit the weakening "
                    f"correspondence: cannot match {_describe(low)} with "
                    f"{_describe(high)}"
                )
            items.append(("pair", low, high))
            i += 1
            j += 1
        return items

    def _swap_lemma(self, request, method, index, low_pair, high_pair):
        """A reordered adjacent statement pair: sound when the written
        locations lie in distinct regions (Steensgaard) and neither
        statement reads what the other writes."""
        from repro.lang import asts as ast
        from repro.lang.astutil import free_vars
        from repro.machine.steps import AssignStep
        from repro.proofs.artifacts import bool_verdict
        from repro.strategies.regions import analyze_regions

        first, second = low_pair

        def target_region_key(step):
            if not isinstance(step, AssignStep) or len(step.lhss) != 1:
                return None
            lhs = step.lhss[0]
            if isinstance(lhs, ast.Deref) and isinstance(
                lhs.operand, ast.Var
            ):
                return f"l:{method}:{lhs.operand.name}" \
                    if request.low_ctx.local(method, lhs.operand.name) \
                    else f"g:{lhs.operand.name}"
            if isinstance(lhs, ast.Var):
                return f"var:{lhs.name}"
            return None

        def obligation():
            a = target_region_key(first)
            b = target_region_key(second)
            if a is None or b is None:
                return bool_verdict(False, "unsupported swap shape")
            if a.startswith("var:") and b.startswith("var:"):
                return bool_verdict(a != b, {"targets": (a, b)})
            if a.startswith("var:") or b.startswith("var:"):
                return bool_verdict(True)
            analysis = analyze_regions(request.low_ctx)
            if analysis.may_alias(a, b):
                return bool_verdict(
                    False,
                    {"reason": "pointers may alias", "targets": (a, b)},
                )
            # Neither statement may read the other's written value.
            reads = set()
            for step in (first, second):
                for rhs in step.rhss:
                    reads |= free_vars(rhs)
            writes = set()
            for step in (first, second):
                for lhs in step.lhss:
                    writes |= free_vars(lhs)
            if reads & writes:
                return bool_verdict(
                    False, {"read-write overlap": sorted(reads & writes)}
                )
            return bool_verdict(True)

        return Lemma(
            name=f"ReorderedStatements_{method}_{index}",
            statement=(
                f"[{describe_step_effect(first)}] and "
                f"[{describe_step_effect(second)}] commute: their targets "
                "lie in distinct regions"
            ),
            body=[
                "// Steensgaard's analysis assigns the two pointers to",
                "// distinct regions, so the writes cannot alias and the",
                "// reversed assignments reach the same state (sec. 6.2)",
            ],
            obligation=obligation,
        )

    def _check_nondet_usage(self, used_nondet: bool) -> None:
        if used_nondet and not self.allow_nondet:  # pragma: no cover
            raise StrategyError(
                "weakening pair requires nondet_weakening"
            )

    @staticmethod
    def _compatible(low, high) -> bool:
        from repro.machine.steps import (
            AssignStep,
            BranchStep,
            SomehowStep,
        )

        if isinstance(low, AssignStep) and isinstance(high, SomehowStep):
            return True
        if type(low) is not type(high):
            return False
        if isinstance(low, BranchStep) and low.when != high.when:
            return False
        return True

    def _lemma_body(self, low, high, plan) -> list[str]:
        body = [
            f"// low step:  {step_constructor_name(low)} at {low.pc}",
            f"// high step: {step_constructor_name(high)} at {high.pc}",
            f"// discharge: {plan.kind} — {plan.description}",
            "var s' := NextState(s, tid, step);",
        ]
        for witness in plan.witnesses:
            body.append(f"// {witness}")
        for var in low.nondet_vars():
            body.append(
                f"// case split over encapsulated parameter {var.key}"
            )
        body.append(
            "assert StepRelation_Low(s, s') ==> StepRelation_High(s, s');"
        )
        return body


class NondetWeakeningStrategy(WeakeningStrategy):
    """Weakening where the high level introduces ``*`` nondeterminism;
    lemmas demonstrate witnesses for the existential (§4.2.5)."""

    name = "nondet_weakening"
    allow_nondet = True
