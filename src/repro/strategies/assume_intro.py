"""The assume-introduction strategy, backed by rely-guarantee reasoning
(§4.2.2).

"Two programs exhibit the assume-introduction correspondence if they are
identical except that the high-level program has additional enabling
constraints on one or more statements.  The correspondence requires that
each added enabling constraint always holds in the low-level program at
its corresponding program position."

Recipe: ``assume_intro`` with optional directives:

* ``invariant "<expr>"`` — a one-state invariant of the low program;
* ``rely_guarantee "<expr>"`` — a two-state predicate (may use
  ``old(...)``) that steps of *other* threads must maintain for every
  thread (the rely);

both are checked by the engine's explorer, and both are available as
hypotheses in the rendered path lemmas.

The proof generator follows §4.2.2: "one lemma for each program path
that starts at a method's entry and makes no backward jumps" — we
enumerate those finite paths and render one lemma each, then discharge
the enabling-condition obligation at each program point over the
reachable states of the low-level machine.
"""

from __future__ import annotations

from repro.errors import StrategyError
from repro.lang.astutil import expr_to_str
from repro.machine.evaluator import eval_for_thread, parse_predicate
from repro.machine.steps import AssumeStep, Step
from repro.proofs.artifacts import Lemma, ProofScript, bool_verdict
from repro.proofs.library import render_library_preamble
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

#: Cap on enumerated forward paths per method (the set is always finite,
#: but deeply branched methods could explode the rendering).
MAX_PATHS = 4_000


class AssumeIntroStrategy(Strategy):
    name = "assume_intro"

    def generate(self, request: ProofRequest) -> ProofScript:
        script = ProofScript(
            proof_name=request.proof.name,
            strategy=self.name,
            low_level=request.proof.low_level,
            high_level=request.proof.high_level,
        )
        script.preamble.extend(render_library_preamble())
        script.preamble.extend(
            machine_definitions(request.low_machine)
        )

        introduced = self._match_levels(request)
        if not introduced:
            raise StrategyError(
                "assume_intro: the high level introduces no assume "
                "statements"
            )
        self._invariant_lemmas(request, script)
        self._rely_guarantee_lemmas(request, script)
        for low_pc, method, assume in introduced:
            self._enabling_lemma(request, script, low_pc, method, assume)
        self._path_lemmas(request, script)
        return script

    # ------------------------------------------------------------------

    def _match_levels(
        self, request: ProofRequest
    ) -> list[tuple[str | None, str, AssumeStep]]:
        """Align levels, returning (low position, method, assume step)
        for each introduced enabling condition.  The low position is the
        PC of the statement the assume guards (the next matched step)."""
        introduced: list[tuple[str | None, str, AssumeStep]] = []
        for method in self.common_methods(request):
            low_steps = self.ordered_steps(request.low_machine, method)
            high_steps = self.ordered_steps(request.high_machine, method)
            skip_high = lambda s: isinstance(s, AssumeStep)
            pairs = self.align_steps(
                low_steps,
                high_steps,
                skip_high=skip_high,
                compatible=skip_aware_compatible(skip_high=skip_high),
            )
            pending: list[AssumeStep] = []
            for low, high in pairs:
                if low is None:
                    assert isinstance(high, AssumeStep)
                    pending.append(high)
                    continue
                assert high is not None
                if not steps_identical(low, high):
                    raise StrategyError(
                        "assume_intro correspondence fails at "
                        f"{low.pc}: statements differ beyond added "
                        "enabling conditions"
                    )
                for assume in pending:
                    introduced.append((low.pc, method, assume))
                pending = []
            for assume in pending:
                # Trailing assume: guards the method's return position.
                introduced.append((None, method, assume))
        return introduced

    # ------------------------------------------------------------------

    def _enabling_lemma(
        self,
        request: ProofRequest,
        script: ProofScript,
        low_pc: str | None,
        method: str,
        assume: AssumeStep,
    ) -> None:
        cond = assume.cond
        machine = request.low_machine

        def obligation():
            for state in request.reachable_states(machine):
                if not state.running:
                    continue
                for tid in state.threads.keys():
                    thread = state.threads[tid]
                    if thread.terminated or not thread.frames:
                        continue
                    if low_pc is not None and thread.pc != low_pc:
                        continue
                    if low_pc is None and thread.top.method != method:
                        continue
                    if thread.top.method != method:
                        continue
                    if not eval_for_thread(machine, cond, state, tid,
                                           method):
                        return bool_verdict(
                            False,
                            {
                                "pc": thread.pc,
                                "tid": tid,
                                "condition": expr_to_str(cond),
                            },
                        )
            return bool_verdict(True)

        where = low_pc if low_pc is not None else f"{method} (exit)"
        script.add(
            Lemma(
                name=(
                    "EnablingConditionHolds_"
                    f"{where.replace('#', '_').replace(' ', '_')}"
                    f"_{len(script.lemmas)}"
                ),
                statement=(
                    f"forall s in Reachable, tid at {where} :: "
                    f"{expr_to_str(cond)}"
                ),
                body=[
                    "// the added enabling condition always holds at its",
                    "// corresponding low-level program position, so",
                    "// assume-introduction adds no blocking (sec. 4.2.2)",
                ],
                obligation=obligation,
            )
        )

    # ------------------------------------------------------------------

    def _invariant_lemmas(
        self, request: ProofRequest, script: ProofScript
    ) -> None:
        for index, item in enumerate(
            request.proof.directives("invariant")
        ):
            text = item.args[0] if item.args else "true"
            predicate = parse_predicate(request.low_ctx, text)
            machine = request.low_machine

            def obligation(predicate=predicate):
                for state in request.reachable_states(machine):
                    if not state.running:
                        continue
                    for tid in state.threads.keys():
                        value = eval_for_thread(machine, predicate, state,
                                                tid)
                        if value is False:
                            return bool_verdict(
                                False, {"invariant": expr_to_str(predicate)}
                            )
                return bool_verdict(True)

            script.add(
                Lemma(
                    name=f"InvariantInductive_{index}",
                    statement=f"forall s in Reachable :: {text}",
                    body=[
                        "// base case: the invariant holds initially",
                        "// inductive case: every program step and every",
                        "// store-buffer drain preserves the invariant",
                    ],
                    obligation=obligation,
                )
            )

    def _rely_guarantee_lemmas(
        self, request: ProofRequest, script: ProofScript
    ) -> None:
        for index, item in enumerate(
            request.proof.directives("rely_guarantee")
        ):
            text = item.args[0] if item.args else "true"
            predicate = parse_predicate(
                request.low_ctx, text, two_state=True
            )
            machine = request.low_machine

            def obligation(predicate=predicate):
                for state, transition, nxt in (
                    request.reachable_transitions(machine)
                ):
                    if not nxt.running:
                        continue
                    for tid in state.threads.keys():
                        if tid == transition.tid:
                            continue  # the rely constrains *other* threads
                        thread = state.threads[tid]
                        if thread.terminated or not thread.frames:
                            continue
                        holds = eval_for_thread(
                            machine, predicate, nxt, tid,
                            thread.top.method, old_state=state,
                        )
                        if holds is False:
                            return bool_verdict(
                                False,
                                {
                                    "rely": expr_to_str(predicate),
                                    "step": transition.describe(),
                                },
                            )
                return bool_verdict(True)

            script.add(
                Lemma(
                    name=f"RelyGuaranteeMaintained_{index}",
                    statement=(
                        "forall s, s', stepper, tid :: stepper != tid "
                        f"==> {text}"
                    ),
                    body=[
                        "// every step by another thread maintains the",
                        "// rely predicate (two-state, old() = pre-state);",
                        "// instantiates lemma RelyGuaranteeSoundness()",
                    ],
                    obligation=obligation,
                )
            )

    # ------------------------------------------------------------------

    def _path_lemmas(self, request: ProofRequest, script: ProofScript) -> None:
        """Render one lemma per forward (no-back-jump) path per method."""
        machine = request.low_machine
        for method, entry in machine.method_entry.items():
            paths = self._forward_paths(machine, entry)
            for index, path in enumerate(paths):
                if index >= MAX_PATHS:
                    break
                script.add(
                    Lemma(
                        name=f"PathLemma_{method}_{index}",
                        statement=(
                            f"the Hoare-style path through {method} "
                            "maintains all invariants and rely-guarantee "
                            "predicates"
                        ),
                        body=[
                            "// single-thread state machine: other-thread",
                            "// interference is havoc subject to the rely;",
                            "// loop heads havoc subject to loop "
                            "invariants",
                        ]
                        + [
                            f"// step: {describe_step_effect(step)}"
                            for step in path
                        ],
                    )
                )

    def _forward_paths(self, machine, entry: str) -> list[list[Step]]:
        """All step paths from *entry* that never jump backwards."""
        paths: list[list[Step]] = []

        def index_of(pc: str | None) -> int:
            if pc is None:
                return 1 << 30
            return machine.pcs[pc].index

        def walk(pc: str | None, acc: list[Step]) -> None:
            if len(paths) >= MAX_PATHS:
                return
            if pc is None:
                paths.append(acc)
                return
            steps = machine.steps_at(pc)
            if not steps:
                paths.append(acc)
                return
            extended = False
            for step in steps:
                if index_of(step.target) <= index_of(pc) and \
                        step.target is not None:
                    continue  # backward jump ends the path
                extended = True
                walk(step.target, acc + [step])
            if not extended:
                paths.append(acc)

        walk(entry, [])
        return paths
