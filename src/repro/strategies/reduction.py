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

Generation is static, as in the paper: it reads only the two levels'
text.  It checks the correspondence, finds the region steps and the
paths through each reduced region, and emits one commutativity lemma
per (region step, other step) pair — "This requires generating many
lemmas, one for each pair of steps" — plus one ``PhaseDiscipline``
lemma per region path.

The phase obligations do the checking.  The first one to run sweeps
the low level once (:meth:`Explorer.successor_table`) and classifies
every region step as a right and/or left mover with the
encapsulated-nondeterminism trick of §4.2.1: the alternate-universe
intermediate state is simply ``NextState(s1, sigma_j)``, so a check
asks whether ``NextState(NextState(s1, sigma_j), sigma_i) == s3``.
Every state such a check visits is a successor of a reachable state,
so each one is a lookup in the sweep's table, not another step.  The
classification (or a state-budget cut) is memoised for the proof's
other phase obligations; the farm caches their verdicts under the
machine-pair fingerprint, so a warm run never sweeps.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import StateBudgetExceeded, StrategyError
from repro.machine.program import StateMachine, Transition
from repro.machine.state import ProgramState
from repro.machine.steps import Step
from repro.proofs.artifacts import Lemma, ProofScript, bool_verdict
from repro.proofs.library import render_library_preamble
from repro.proofs.render import (
    describe_step_effect,
    machine_definitions,
    step_constructor_name,
)
from repro.record import Record
from repro.strategies.base import ProofRequest, Strategy
from repro.strategies.subsumption import steps_identical

#: Bound on enumerated region paths (paths between yield points are
#: loop-free because loops inside regions must contain a yield).
MAX_REGION_PATHS = 2_000


class MoverClassification(Record):
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
            machine_definitions(request.low_machine)
        )
        script.preamble.extend(
            machine_definitions(request.high_machine)
        )

        reduced_pcs = self._check_correspondence(request)
        if not reduced_pcs:
            raise StrategyError(
                "reduction: the high level removes no yield points"
            )
        region_steps = self._region_steps(request.low_machine, reduced_pcs)
        self._commute_lemmas(request.low_machine, script, region_steps)
        self._phase_lemmas(
            request.low_machine, script, reduced_pcs,
            _memoized_classification(request, region_steps),
        )
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

    @staticmethod
    def _commute_lemmas(
        machine: StateMachine,
        script: ProofScript,
        region_steps: list[Step],
    ) -> None:
        """One commutativity lemma per (region step, other step) pair, as
        in the paper ("one lemma for each pair of steps of the low-level
        program where the first step in that pair is a right mover").
        The pairing covers every step type of the program plus the
        memory model's environment move, even if a pair never
        co-occurs in a reachable state (such lemmas hold vacuously).
        Which way each step moves is decided by the phase obligations."""
        all_names = {
            step_constructor_name(s) for s in machine.all_steps()
        } | {"drain"}
        for step in region_steps:
            key = step_constructor_name(step)
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
                            "with the steps of other threads",
                            "// alternate-universe state constructed as",
                            "// NextState(s1, sigma_j) via encapsulated",
                            "// nondeterminism (sec. 4.1)",
                        ],
                    )
                )

    # ------------------------------------------------------------------

    def _phase_lemmas(
        self,
        machine: StateMachine,
        script: ProofScript,
        reduced_pcs: set[str],
        classification: Callable[[], MoverClassification],
    ) -> None:
        """One obligation per path through a reduced region: the path
        is R* [N] L* under the (memoised) mover classification."""
        paths = self._region_paths(machine, reduced_pcs)
        for index, path in enumerate(paths):

            def obligation(path: list[Step] = path):
                return bool_verdict(
                    *self._check_shape(path, classification())
                )

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
                        "// movers classified over the reachable states",
                    ],
                    obligation=obligation,
                )
            )

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


# ---------------------------------------------------------------------------
# mover classification


def _memoized_classification(
    request: ProofRequest, region_steps: list[Step]
) -> Callable[[], MoverClassification]:
    """The classification of *region_steps* over the low level, computed
    by the first call and returned by every later one.  A state-budget
    cut is kept as well, so each phase obligation of the proof reports
    the same cut (an UNKNOWN verdict) without sweeping again."""
    memo: list = []

    def classification() -> MoverClassification:
        if not memo:
            from repro.explore.explorer import Explorer

            try:
                table = Explorer(
                    request.low_machine, request.max_states,
                ).successor_table()
                memo.append(classify_movers(table, region_steps))
            except StateBudgetExceeded as cut:
                memo.append(cut)
        if isinstance(memo[0], StateBudgetExceeded):
            raise memo[0]
        return memo[0]

    return classification


def classify_movers(
    table: dict, region_steps: list[Step]
) -> MoverClassification:
    """Which way each of *region_steps* commutes, over every reachable
    state of *table*, a level's :meth:`Explorer.successor_table`.

    At each reachable state, each transition ``m`` of a region step is
    paired with each transition ``o`` of another thread enabled there.
    ``m`` moves right past ``o`` if, whenever ``m`` then ``o`` fires,
    ``o`` then ``m`` fires too and reaches the same state; it moves
    left if the converse holds.  A region step is a right (left) mover
    when every such pair passes.  The states involved are ``s·m`` and
    ``s·o`` and their successors, so each check is a lookup in the
    table, and interned successors make "the same state" an identity
    test.  ``right_mover_at``/``left_mover_at`` in
    :mod:`repro.proofs.library` are the same checks, stepped by the
    interpreter; the tests use them as the differential oracle.
    """

    def after(state: ProgramState, transition: Transition):
        """Where *transition* leads from *state*; None if disabled."""
        for candidate, nxt in table[state]:
            if candidate == transition:
                return nxt
        return None

    def reorders(first_next, second, second_next, first) -> bool:
        """From a state where both fire, if ``first`` then ``second``
        runs (``first_next`` = after ``first``), ``second`` then
        ``first`` runs to the same state."""
        if not first_next.running:
            return True
        final = after(first_next, second)
        if final is None:
            return True
        if not second_next.running:
            return False
        return after(second_next, first) is final

    instances: dict[Step, list] = {step: [] for step in region_steps}
    for state, pairs in table.items():
        for transition, nxt in pairs:
            found = instances.get(transition.step)
            if found is not None:
                found.append((state, transition, nxt))

    right: set[str] = set()
    left: set[str] = set()
    witnesses: dict[str, str] = {}
    for step in region_steps:
        key = step_constructor_name(step)
        is_right = True
        is_left = True
        for state, mover, mover_next in instances[step]:
            for other, other_next in table[state]:
                if other.tid == mover.tid:
                    continue
                if is_right and not reorders(
                    mover_next, other, other_next, mover
                ):
                    is_right = False
                    witnesses.setdefault(
                        key, f"right-mover fails against {_name(other)}"
                    )
                if is_left and not reorders(
                    other_next, mover, mover_next, other
                ):
                    is_left = False
                    witnesses.setdefault(
                        key, f"left-mover fails against {_name(other)}"
                    )
            if not is_right and not is_left:
                break
        if is_right:
            right.add(key)
        if is_left:
            left.add(key)
    return MoverClassification(right, left, witnesses)


def _name(transition: Transition) -> str:
    return (
        "drain" if transition.is_drain
        else step_constructor_name(transition.step)
    )
