"""Strategy framework: proof generators for correspondence types (§4).

"A strategy is a proof generator designed for a particular type of
correspondence between a low-level and a high-level program."  Each
strategy inspects the two translated levels, verifies (structurally)
that they exhibit its correspondence — raising :class:`StrategyError`
with a diagnostic otherwise, the paper's 'generate an error message
indicating the problem' path — and emits a :class:`ProofScript` whose
lemmas carry mechanically checkable obligations.

Shared machinery lives here: the step aligner used by every
pairwise-matching strategy, ordered step listings and reachable-state
caching.  Recipe-supplied ownership/invariant predicates are parsed and
evaluated per thread by :func:`repro.machine.evaluator.parse_predicate`
and :func:`~repro.machine.evaluator.eval_for_thread`.
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.compiler.stepc import successors_for
from repro.errors import StrategyError
from repro.lang import asts as ast
from repro.lang.resolver import LevelContext
from repro.machine.program import StateMachine, Transition
from repro.machine.state import ProgramState
from repro.machine.steps import BranchStep, Step
from repro.proofs.artifacts import ProofScript
from repro.record import Fresh, Record
from repro.verifier.prover import Prover


class ProofRequest(Record):
    """Everything a strategy needs to generate one refinement proof."""

    proof: ast.ProofDecl
    low_ctx: LevelContext
    high_ctx: LevelContext
    low_machine: StateMachine
    high_machine: StateMachine
    prover: Prover = Fresh(Prover)
    max_states: int = 200_000
    _reachable_cache: dict = Fresh(dict)

    # ------------------------------------------------------------------

    def reachable_states(self, machine: StateMachine) -> list[ProgramState]:
        """Reachable states of *machine*, cached across lemmas.

        Raises :class:`repro.errors.StateBudgetExceeded` when the state
        space does not fit in ``max_states`` — the farm turns that into
        an UNKNOWN (inconclusive) verdict, so a truncated sweep can
        never silently pass an obligation, nor refute one.
        """
        key = id(machine)
        if key not in self._reachable_cache:
            from repro.explore.explorer import Explorer

            states = list(
                Explorer(machine, self.max_states).reachable_states()
            )
            self._reachable_cache[key] = states
        return self._reachable_cache[key]

    def release_sweeps(self) -> None:
        """Forget the cached sweeps.  The engine calls this once a
        proof's verdicts are folded: the script's obligations still
        hold this request, and a finished outcome (which the serve
        daemon may keep for a long time) must not keep its states."""
        self._reachable_cache.clear()

    def reachable_transitions(
        self, machine: StateMachine
    ) -> Iterable[tuple[ProgramState, Transition, ProgramState]]:
        """All (state, transition, next state) triples of *machine*."""
        successors = successors_for(machine)
        for state in self.reachable_states(machine):
            for transition, nxt in successors(state):
                yield state, transition, nxt


class Strategy:
    """Base class for refinement-proof strategies."""

    #: The recipe name of the strategy (e.g. ``weakening``).
    name: str = ""

    def generate(self, request: ProofRequest) -> ProofScript:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # shared helpers

    @staticmethod
    def ordered_steps(machine: StateMachine, method: str) -> list[Step]:
        """The steps of *method* in control-flow order.

        A DFS over the method's CFG from its entry PC (guard-true edges
        first) yields an ordering that is stable across levels whose
        ASTs differ only by inserted or removed statements — exactly
        what the pairwise-matching strategies need.  Raw PC indices are
        not stable: the translator allocates an ``if``'s join PC before
        its branches.
        """
        entry = machine.method_entry.get(method)
        if entry is None:
            return []
        ordered: list[Step] = []
        visited: set[str] = set()

        def emit_order(steps: list[Step]) -> list[Step]:
            true_first = sorted(
                steps,
                key=lambda s: (
                    1 if isinstance(s, BranchStep) and not s.when else 0
                ),
            )
            return true_first

        def visit(pc: str | None) -> None:
            if pc is None or pc in visited:
                return
            visited.add(pc)
            steps = emit_order(machine.steps_at(pc))
            ordered.extend(steps)
            for step in steps:
                visit(step.target)

        visit(entry)
        return ordered

    @staticmethod
    def common_methods(request: ProofRequest) -> list[str]:
        low_methods = [
            m.name for m in request.low_ctx.level.methods
            if m.body is not None
        ]
        high_names = {
            m.name for m in request.high_ctx.level.methods
            if m.body is not None
        }
        missing = [m for m in low_methods if m not in high_names]
        extra = sorted(
            high_names - {m for m in low_methods}
        )
        if missing or extra:
            raise StrategyError(
                f"levels disagree on methods: missing in high {missing}, "
                f"extra in high {extra}"
            )
        return low_methods

    @staticmethod
    def align_steps(
        low_steps: list[Step],
        high_steps: list[Step],
        skip_low: Callable[[Step], bool] | None = None,
        skip_high: Callable[[Step], bool] | None = None,
        compatible: Callable[[Step, Step], bool] | None = None,
    ) -> list[tuple[Step | None, Step | None]]:
        """Greedy alignment of two step sequences.

        Pairs compatible steps in order; steps matching ``skip_low`` /
        ``skip_high`` may be left unpaired (yielding ``(step, None)`` or
        ``(None, step)`` entries).  Raises :class:`StrategyError` when
        the sequences cannot be aligned — the correspondence does not
        hold.
        """
        if compatible is None:
            compatible = _default_compatible
        pairs: list[tuple[Step | None, Step | None]] = []
        i = j = 0
        while i < len(low_steps) or j < len(high_steps):
            low = low_steps[i] if i < len(low_steps) else None
            high = high_steps[j] if j < len(high_steps) else None
            if low is not None and high is not None and compatible(low, high):
                pairs.append((low, high))
                i += 1
                j += 1
                continue
            if high is not None and skip_high is not None and skip_high(high):
                pairs.append((None, high))
                j += 1
                continue
            if low is not None and skip_low is not None and skip_low(low):
                pairs.append((low, None))
                i += 1
                continue
            low_desc = _describe(low)
            high_desc = _describe(high)
            raise StrategyError(
                "programs do not exhibit the expected correspondence: "
                f"cannot match low-level step {low_desc} with high-level "
                f"step {high_desc}"
            )
        return pairs


def skip_aware_compatible(
    skip_low: Callable[[Step], bool] | None = None,
    skip_high: Callable[[Step], bool] | None = None,
) -> Callable[[Step, Step], bool]:
    """A pairing predicate for aligners with skippable steps: a step that
    could be skipped is only paired when the pair is structurally
    identical (otherwise the greedy aligner would swallow an introduced
    step into the wrong pair)."""
    from repro.strategies.subsumption import steps_identical

    def compatible(low: Step, high: Step) -> bool:
        if steps_identical(low, high):
            return True
        if skip_high is not None and skip_high(high):
            return False
        if skip_low is not None and skip_low(low):
            return False
        return _default_compatible(low, high)

    return compatible


def _describe(step: Step | None) -> str:
    if step is None:
        return "<end of method>"
    from repro.proofs.render import describe_step_effect

    return f"{step.pc} ({describe_step_effect(step)})"


def _default_compatible(low: Step, high: Step) -> bool:
    if type(low) is not type(high):
        return False
    if isinstance(low, BranchStep) and low.when != high.when:
        return False
    return True
