"""The TSO-elimination strategy (§4.2.3).

"A pair of programs exhibits the TSO-elimination correspondence if all
assignments to a set of locations L in the low-level program are
replaced by TSO-bypassing assignments.  Furthermore, the developer
supplies an ownership predicate that specifies which thread (if any)
owns each location in L.  It must be an invariant that no two threads
own the same location at once, and no thread can read or write a
location in L unless it owns that location.  Any step releasing
ownership of a location must ensure the thread's store buffer is empty."

Recipe: ``tso_elim <variable> "<ownership predicate>"`` where the
predicate may mention ``$me`` (the candidate owning thread), the
level's globals, and ghost variables — e.g.
``tso_elim best_len "mutex == $me"``.
"""

from __future__ import annotations

from repro.errors import StrategyError
from repro.lang import asts as ast
from repro.lang.astutil import expr_equal, free_vars
from repro.machine.steps import AssignStep, BranchStep, Step
from repro.proofs.artifacts import (
    Lemma,
    ProofScript,
    bool_verdict,
)
from repro.proofs.library import render_library_preamble
from repro.proofs.render import (
    describe_step_effect,
    render_machine_definitions,
)
from repro.strategies.base import ProofRequest, Strategy
from repro.strategies.subsumption import steps_identical


def _once(check):
    """Wrap a boolean-or-counterexample check into a lemma obligation."""

    def obligation():
        result = check()
        return bool_verdict(
            result is True, None if result is True else result
        )

    return obligation


class TsoElimStrategy(Strategy):
    name = "tso_elim"

    def generate(self, request: ProofRequest) -> ProofScript:
        args = request.proof.strategy.args
        if len(args) < 2:
            raise StrategyError(
                "tso_elim requires a variable name and an ownership "
                "predicate"
            )
        varname = args[0]
        if request.low_ctx.globals.get(varname) is None:
            raise StrategyError(f"tso_elim: unknown global {varname}")
        ownership = self.parse_predicate_text(request, args[1])

        script = ProofScript(
            proof_name=request.proof.name,
            strategy=self.name,
            low_level=request.proof.low_level,
            high_level=request.proof.high_level,
        )
        script.preamble.extend(render_library_preamble())
        script.preamble.extend(
            render_machine_definitions(request.low_machine)
        )

        changed_pairs = self._check_correspondence(request, varname, script)
        if not changed_pairs:
            raise StrategyError(
                f"tso_elim: no assignment to {varname} differs between "
                "the levels; nothing to eliminate"
            )

        self._ownership_lemmas(request, varname, ownership, script)
        return script

    # ------------------------------------------------------------------

    def parse_predicate_text(self, request: ProofRequest, text: str):
        try:
            return request.parse_predicate(text, request.low_ctx)
        except Exception as error:
            raise StrategyError(
                f"tso_elim: bad ownership predicate {text!r}: {error}"
            ) from error

    def _check_correspondence(
        self, request: ProofRequest, varname: str, script: ProofScript
    ) -> list[tuple[Step, Step]]:
        """Verify levels are identical except for ``:=`` → ``::=`` on
        assignments to *varname*; return the changed pairs."""
        changed: list[tuple[Step, Step]] = []
        for method in self.common_methods(request):
            low_steps = self.ordered_steps(request.low_machine, method)
            high_steps = self.ordered_steps(request.high_machine, method)
            pairs = self.align_steps(low_steps, high_steps)
            for index, (low, high) in enumerate(pairs):
                assert low is not None and high is not None
                if steps_identical(low, high):
                    continue
                if not (
                    isinstance(low, AssignStep)
                    and isinstance(high, AssignStep)
                    and not low.tso_bypass
                    and high.tso_bypass
                    and all(
                        expr_equal(a, b)
                        for a, b in zip(low.lhss, high.lhss)
                    )
                    and all(
                        expr_equal(a, b)
                        for a, b in zip(low.rhss, high.rhss)
                    )
                    and self._assigns_only(low, varname)
                ):
                    raise StrategyError(
                        "tso_elim correspondence fails at "
                        f"{low.pc}: steps differ by more than the "
                        "memory ordering of assignments to "
                        f"{varname}"
                    )
                changed.append((low, high))
                script.add(
                    Lemma(
                        name=f"TsoElim_{method}_{index}_OrderingChange",
                        statement=(
                            f"[{describe_step_effect(low)}] refines "
                            f"[{describe_step_effect(high)}] given the "
                            "ownership discipline"
                        ),
                        body=[
                            "// instantiate lemma TsoElimination() with",
                            f"// location {varname} and the recipe's "
                            "ownership predicate",
                        ],
                    )
                )
        return changed

    @staticmethod
    def _assigns_only(step: AssignStep, varname: str) -> bool:
        return all(
            isinstance(lhs, ast.Var) and lhs.name == varname
            for lhs in step.lhss
        )

    # ------------------------------------------------------------------

    def _ownership_lemmas(
        self,
        request: ProofRequest,
        varname: str,
        ownership: ast.Expr,
        script: ProofScript,
    ) -> None:
        machine = request.low_machine
        ctx = request.low_ctx

        def owners(state) -> list[int]:
            result = []
            for tid in state.threads.keys():
                value = request.eval_for_thread(
                    ctx, machine, ownership, state, tid
                )
                if value:
                    result.append(tid)
            return result

        def exclusive() -> bool | tuple:
            for state in request.reachable_states(machine):
                if not state.running:
                    continue
                holding = owners(state)
                if len(holding) > 1:
                    return ("two owners", holding)
            return True

        script.add(
            Lemma(
                name="OwnershipExclusive",
                statement=(
                    "forall s, t1, t2 :: t1 != t2 ==> "
                    "!(owns(s, t1) && owns(s, t2))"
                ),
                body=[
                    "// enumerate reachable states of the low-level "
                    "machine;",
                    "// at most one thread satisfies the ownership "
                    "predicate",
                ],
                obligation=_once(exclusive),
            )
        )

        # One lemma per accessing pc: the obligation checks every
        # thread at the pc, so the steps sharing it (a branch's two
        # outcomes) share one lemma.
        touching: dict[str, list[Step]] = {}
        for step in machine.all_steps():
            if self._accesses(step, varname):
                touching.setdefault(step.pc, []).append(step)
        for pc, steps in touching.items():
            enabled = " || ".join(
                f"enabled(s, tid, [{describe_step_effect(step)}])"
                for step in steps
            )
            script.add(
                Lemma(
                    name=f"AccessRequiresOwnership_{pc.replace('#', '_')}",
                    statement=f"forall s, tid :: {enabled} ==> owns(s, tid)",
                    body=[
                        f"// every access to {varname} is performed by "
                        "the owner",
                    ],
                    obligation=self._access_obligation(
                        request, ownership, pc
                    ),
                )
            )
        if not touching:
            raise StrategyError(
                f"tso_elim: no statement accesses {varname}"
            )

        def release_fenced() -> bool | tuple:
            for state, transition, nxt in request.reachable_transitions(
                machine
            ):
                if not nxt.running:
                    continue
                tid = transition.tid
                before = request.eval_for_thread(
                    ctx, machine, ownership, state, tid
                )
                after = request.eval_for_thread(
                    ctx, machine, ownership, nxt, tid
                )
                if before and not after:
                    thread = nxt.threads.get(tid)
                    if thread is not None and not thread.sb_empty:
                        return ("release with non-empty store buffer",
                                transition.describe())
            return True

        script.add(
            Lemma(
                name="ReleaseImpliesStoreBufferEmpty",
                statement=(
                    "forall s, s', tid :: owns(s, tid) && !owns(s', tid) "
                    "==> s'.threads[tid].storeBuffer == []"
                ),
                body=[
                    "// any step releasing ownership drains the store "
                    "buffer first",
                    "// (e.g. by being a fence or an x86 LOCK-prefixed "
                    "instruction)",
                ],
                obligation=_once(release_fenced),
            )
        )

    def _access_obligation(self, request, ownership, pc: str):
        machine = request.low_machine
        ctx = request.low_ctx

        def obligation():
            for state in request.reachable_states(machine):
                if not state.running:
                    continue
                for tid in state.threads.keys():
                    thread = state.threads[tid]
                    if thread.terminated or thread.pc != pc:
                        continue
                    if (
                        state.atomic_owner is not None
                        and state.atomic_owner != tid
                    ):
                        continue
                    owns = request.eval_for_thread(
                        ctx, machine, ownership, state, tid
                    )
                    if not owns:
                        return bool_verdict(
                            False,
                            {
                                "pc": pc,
                                "tid": tid,
                                "reason": "access without ownership",
                            },
                        )
            return bool_verdict(True)

        return obligation

    @staticmethod
    def _accesses(step: Step, varname: str) -> bool:
        for expr in step.reads_exprs():
            for node in ast.walk_expr(expr):
                if isinstance(node, ast.Var) and node.name == varname:
                    return True
        return False
