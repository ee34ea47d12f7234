"""The reduction strategy (§4.2.1), using Cohen and Lamport's
generalization.

"Our strategy considers two programs to exhibit the reduction
correspondence if they are identical except that some yield points in
the low-level program are not yield points in the high-level program."

The obligations are the Cohen–Lamport conditions:

* each step ending in the first phase commutes to the *right* with each
  step of another thread;
* each step starting in the second phase commutes to the *left*;
* programs never pass directly from the second phase to the first;
* each path between yield points matches ``R* [N] L*`` (right movers,
  at most one non-mover, left movers).

Commutativity lemmas are generated one per (mover step, other step)
pair — "This requires generating many lemmas, one for each pair of
steps" — and discharged with the encapsulated-nondeterminism trick of
§4.2.1: the alternate-universe intermediate state is simply
``NextState(s1, sigma_j)``, so each lemma hypothesizes
``NextState(NextState(s1, sigma_j), sigma_i) == s3`` and the checker
validates it over the reachable states of the low-level machine.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.compiler.stepc import successors_for
from repro.errors import StrategyError
from repro.machine.program import StateMachine, Transition
from repro.machine.steps import Step
from repro.proofs.artifacts import Lemma, ProofScript, bool_verdict
from repro.proofs.library import (
    left_mover_at,
    render_library_preamble,
    right_mover_at,
)
from repro.proofs.render import (
    describe_step_effect,
    render_machine_definitions,
    step_constructor_name,
)
from repro.strategies.base import ProofRequest, Strategy
from repro.strategies.subsumption import steps_identical

#: Bound on enumerated region paths (paths between yield points are
#: loop-free because loops inside regions must contain a yield).
MAX_REGION_PATHS = 2_000


@dataclass
class MoverClassification:
    """Which way each reduced step commutes (over reachable states)."""

    right_movers: set[str]
    left_movers: set[str]
    witnesses: dict[str, str]


class ReductionStrategy(Strategy):
    name = "reduction"

    def generate(self, request: ProofRequest) -> ProofScript:
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
        script.preamble.extend(
            render_machine_definitions(request.high_machine)
        )

        reduced_pcs = self._check_correspondence(request)
        if not reduced_pcs:
            raise StrategyError(
                "reduction: the high level removes no yield points"
            )
        region_steps = self._region_steps(request.low_machine, reduced_pcs)
        classification = self._classify_movers(
            request, script, region_steps
        )
        self._phase_lemmas(request, script, reduced_pcs, classification)
        return script

    # ------------------------------------------------------------------

    def _check_correspondence(self, request: ProofRequest) -> set[str]:
        """Verify the programs are identical except for yield points;
        return the low-level PCs that stop being yield points."""
        reduced: set[str] = set()
        for method in self.common_methods(request):
            low_steps = self.ordered_steps(request.low_machine, method)
            high_steps = self.ordered_steps(request.high_machine, method)
            pairs = self.align_steps(low_steps, high_steps)
            for low, high in pairs:
                assert low is not None and high is not None
                if not steps_identical(low, high):
                    raise StrategyError(
                        f"reduction correspondence fails at {low.pc}: "
                        "statements differ (reduction only removes "
                        "yield points)"
                    )
                low_info = request.low_machine.pcs[low.pc]
                high_info = request.high_machine.pcs[high.pc]
                if low_info.yieldable and not high_info.yieldable:
                    reduced.add(low.pc)
                elif not low_info.yieldable and high_info.yieldable:
                    raise StrategyError(
                        f"reduction cannot *add* yield points ({low.pc})"
                    )
        return reduced

    @staticmethod
    def _region_steps(
        machine: StateMachine, reduced_pcs: set[str]
    ) -> list[Step]:
        """Steps participating in a reduced region: those whose source PC
        lies in the region, plus the entry steps that lead into it from a
        yield point (the first statement of the atomic sequence — e.g.
        the ``lock`` that must be a right mover)."""
        result = []
        for step in machine.all_steps():
            if step.pc in reduced_pcs or step.target in reduced_pcs:
                result.append(step)
        return result

    # ------------------------------------------------------------------

    def _classify_movers(
        self,
        request: ProofRequest,
        script: ProofScript,
        region_steps: list[Step],
    ) -> MoverClassification:
        machine = request.low_machine
        region_ids = {id(step) for step in region_steps}
        successors = successors_for(machine, request.compiled)

        # Gather, per step, the reachable (state, transition) instances.
        instances: dict[int, list] = {id(s): [] for s in region_steps}
        by_state: dict = {}
        for state in request.reachable_states(machine):
            transitions = [pair[0] for pair in successors(state)]
            by_state[state] = transitions
            for transition in transitions:
                if (
                    transition.step is not None
                    and id(transition.step) in region_ids
                ):
                    instances[id(transition.step)].append(
                        (state, transition)
                    )

        right: set[str] = set()
        left: set[str] = set()
        witnesses: dict[str, str] = {}
        other_step_names: set[str] = set()
        for step in region_steps:
            key = step_constructor_name(step)
            is_right = True
            is_left = True
            for state, transition in instances[id(step)]:
                for other in by_state[state]:
                    if other.tid == transition.tid:
                        continue
                    name = (
                        "drain" if other.is_drain
                        else step_constructor_name(other.step)
                    )
                    other_step_names.add(name)
                    if is_right and not right_mover_at(
                        machine, state, transition, other
                    ):
                        is_right = False
                        witnesses.setdefault(
                            key, f"right-mover fails against {name}"
                        )
                    if is_left and not left_mover_at(
                        machine, state, transition, other
                    ):
                        is_left = False
                        witnesses.setdefault(
                            key, f"left-mover fails against {name}"
                        )
                if not is_right and not is_left:
                    break
            if is_right:
                right.add(key)
            if is_left:
                left.add(key)
        # One commutativity lemma per (reduced step, other step) pair, as
        # in the paper ("one lemma for each pair of steps of the
        # low-level program where the first step in that pair is a right
        # mover").  The pairing covers every step type of the program
        # plus the store-buffer drain, even if a pair never co-occurs in
        # a reachable state (such lemmas hold vacuously).
        all_names = {
            step_constructor_name(s) for s in machine.all_steps()
        } | other_step_names | {"drain"}
        for step in region_steps:
            key = step_constructor_name(step)
            direction = (
                "right" if key in right
                else "left" if key in left else "none"
            )
            for name in sorted(all_names):
                script.add(
                    Lemma(
                        name=f"Commute_{key}_across_{name}",
                        statement=(
                            f"NextState(NextState(s1, sigma_j), sigma_i) "
                            f"== s3 for sigma_i = {key}, sigma_j = {name}"
                        ),
                        body=[
                            f"// {describe_step_effect(step)} commutes "
                            f"({direction} mover candidate)",
                            "// alternate-universe state constructed as",
                            "// NextState(s1, sigma_j) via encapsulated",
                            "// nondeterminism (sec. 4.1)",
                        ],
                    )
                )
        return MoverClassification(right, left, witnesses)

    # ------------------------------------------------------------------

    def _phase_lemmas(
        self,
        request: ProofRequest,
        script: ProofScript,
        reduced_pcs: set[str],
        classification: MoverClassification,
    ) -> None:
        """Check every path through each reduced region is R* [N] L*."""
        machine = request.low_machine
        paths = self._region_paths(machine, reduced_pcs)
        failures: list[dict] = []
        for index, path in enumerate(paths):
            shape_ok, detail = self._check_shape(path, classification)
            script.add(
                Lemma(
                    name=f"PhaseDiscipline_path_{index}",
                    statement=(
                        "the reduced sequence ["
                        + ", ".join(
                            describe_step_effect(s) for s in path
                        )
                        + "] has the Cohen-Lamport shape R* [N] L*"
                    ),
                    body=[
                        "// phase 1 = after a right mover; phase 2 = "
                        "before a left mover;",
                        "// no transition from phase 2 back to phase 1",
                        f"// classification: {detail}",
                    ],
                    obligation=(
                        lambda ok=shape_ok, d=detail: bool_verdict(ok, d)
                    ),
                )
            )
            if not shape_ok:
                failures.append({"path": index, "detail": detail})

    def _check_shape(
        self, path: list[Step], classification: MoverClassification
    ) -> tuple[bool, str]:
        """Does *path* decompose as right movers, at most one non-mover,
        then left movers?"""
        phase = 1
        labels = []
        for step in path:
            key = step_constructor_name(step)
            is_right = key in classification.right_movers
            is_left = key in classification.left_movers
            if phase == 1:
                if is_right:
                    labels.append("R")
                    continue
                phase = 2
                if is_left:
                    labels.append("L")
                else:
                    labels.append("N")
                continue
            # phase 2: only left movers allowed.
            if is_left:
                labels.append("L")
                continue
            reason = classification.witnesses.get(key, "not a left mover")
            return False, (
                f"step {key} breaks the phase discipline "
                f"(shape so far {''.join(labels)}; {reason})"
            )
        return True, "".join(labels) or "empty"

    def _region_paths(
        self, machine: StateMachine, reduced_pcs: set[str]
    ) -> list[list[Step]]:
        """Enumerate step paths through reduced regions: start at a
        reduced PC whose predecessors are not reduced, follow steps while
        inside the region."""
        entry_steps = [
            step
            for step in machine.all_steps()
            if step.pc not in reduced_pcs and step.target in reduced_pcs
        ]
        paths: list[list[Step]] = []

        def walk(pc: str | None, acc: list[Step], visited: frozenset[str]):
            if len(paths) >= MAX_REGION_PATHS:
                return
            if pc is None or pc not in reduced_pcs or pc in visited:
                if acc:
                    paths.append(acc)
                return
            steps = machine.steps_at(pc)
            if not steps:
                if acc:
                    paths.append(acc)
                return
            for step in steps:
                walk(step.target, acc + [step], visited | {pc})

        for entry in sorted(entry_steps, key=lambda s: s.pc):
            walk(entry.target, [entry], frozenset({entry.pc}))
        return paths
