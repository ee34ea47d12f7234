"""The regular-to-atomic strategy (SNIPPETS.md: F*
``Strategies.RegularToAtomic``, microsoft/Armada experimental).

The transformation lifts a *regular* level to an *atomic* one: every
program counter is classified as **breaking** (thread-visible: shared
reads/writes under the active memory model, fences/RMWs, lock
operations, thread create/join, output, nondeterminism, loop heads,
method entries — ``armada_created_threads_initially_breaking``) or
**non-breaking**, and every run of steps from one breaking PC to the
next executes as a single atomic action.  The F* development encodes
each such run as an ``armada_atomic_path_info_t`` — the step list plus
either the atomic action it denotes or a successor table of
``armada_successor_info_t`` entries; :func:`atomic_paths` constructs
the same shape here from the classification in
:mod:`repro.explore.atomic` (which itself derives from the analyzer's
access footprints and the independence facts).

As a chain strategy, ``regular_to_atomic`` relates a level to itself
viewed at atomic granularity: the two levels must have identical
statements, and the proof consists of

* a ``PcBreakingCorrect`` lemma (the F* snippet's
  ``armada_pc_breaking_correct``): every non-breaking PC's steps
  re-audit as chainable, every method entry is breaking;
* one per-path simulation lemma: the atomic action's effect equals the
  composition of its constituent micro-steps — checked dynamically
  over a bounded sample of reachable states, with every micro-step's
  successor cross-checked against the compiled stepper, and every
  interior step verified to leave all thread-shared state (memory,
  store buffers, allocations, ghosts, log) untouched.  A deliberately
  unsound collapse (an interior PC that is actually breaking) is
  rejected by the static re-audit inside the obligation.

The strategy conservatively self-disables — emitting an identity-
refinement script instead of path lemmas — when the classification is
unavailable (C11 RA, footprint extraction failure).

:func:`collapse_proof_script` is the engine-side consumer
(``armada verify --atomic``): it merges consecutive obligation-bearing
lemmas whose PCs lie along a non-breaking run into one atomic-block
obligation that discharges the constituents in sequence — verdicts are
identical by construction (the same callables run, first failure
wins), but the farm schedules, caches, and reports strictly fewer
obligations.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import StateBudgetExceeded, StrategyError
from repro.explore.atomic import (
    AtomicClassification,
    classify_atomic,
    step_breaking_reason,
)
from repro.machine.program import StateMachine, Transition
from repro.machine.state import UBSignal
from repro.machine.steps import Step
from repro.proofs.artifacts import (
    Lemma,
    ProofScript,
    bool_verdict,
    proved,
)
from repro.proofs.render import (
    describe_step_effect,
    render_machine_definitions,
)
from repro.strategies.base import ProofRequest, Strategy
from repro.strategies.subsumption import steps_identical
from repro.verifier.prover import Verdict


@dataclass(frozen=True)
class AtomicSuccessorInfo:
    """Mirror of the F* ``armada_successor_info_t``: which step
    (``action_index`` into ``steps_at(pc)``) extends the path, and
    which entry of the path table it extends into."""

    action_index: int
    path_index: int


@dataclass(frozen=True)
class AtomicPathInfo:
    """Mirror of the F* ``armada_atomic_path_info_t``.

    ``pcs`` runs from the breaking start PC through the non-breaking
    interior to the PC the path stops at; ``steps`` are the micro
    steps taken.  A *complete* path (one that reached a breaking PC,
    a terminal PC, or a frame pop) carries its ``atomic_action_index``;
    an incomplete prefix instead carries the ``successors`` table —
    the ``either`` of the F* type."""

    pcs: tuple[str, ...]
    steps: tuple[Step, ...]
    atomic_action_index: int | None = None
    successors: tuple[AtomicSuccessorInfo, ...] = ()

    @property
    def start_pc(self) -> str:
        return self.pcs[0]

    @property
    def end_pc(self) -> str | None:
        return self.pcs[-1] if len(self.pcs) > 1 else None

    @property
    def complete(self) -> bool:
        return self.atomic_action_index is not None


#: Bounds on path enumeration.  Loop heads are breaking, so paths are
#: acyclic within a method and these bounds only guard classifier bugs.
MAX_PATH_STEPS = 128
MAX_PATHS = 4_096


def atomic_paths(
    machine: StateMachine,
    classification: AtomicClassification | None = None,
) -> list[AtomicPathInfo]:
    """Enumerate every atomic path of *machine*: all step sequences
    from a breaking PC through non-breaking PCs to the next breaking
    (or terminal) PC, with bounded branching at interior guards.  The
    returned table contains the incomplete prefixes too, each pointing
    at its extensions — the full successor-table shape."""
    cls = (classification if classification is not None
           else classify_atomic(machine))
    if not cls.enabled and cls.disabled is not None:
        raise StrategyError(
            f"regular_to_atomic: {cls.disabled}"
        )
    table: list[AtomicPathInfo] = []
    action_count = 0

    def extend(pcs: tuple[str, ...], steps: tuple[Step, ...]) -> int:
        """Record the path reaching ``pcs[-1]``; return its table index."""
        nonlocal action_count
        if len(table) >= MAX_PATHS:
            raise StrategyError(
                f"regular_to_atomic: more than {MAX_PATHS} atomic paths"
            )
        here = pcs[-1]
        stops = (
            len(steps) >= MAX_PATH_STEPS
            or cls.breaking.get(here, True)
            or not machine.steps_at(here)
        )
        index = len(table)
        if stops:
            table.append(AtomicPathInfo(
                pcs=pcs, steps=steps,
                atomic_action_index=action_count,
            ))
            action_count += 1
            return index
        table.append(None)  # type: ignore[arg-type]  # patched below
        successors = []
        for action_index, step in enumerate(machine.steps_at(here)):
            nxt = step.target if step.target is not None else here
            child = extend(pcs + (nxt,), steps + (step,))
            successors.append(
                AtomicSuccessorInfo(action_index, child)
            )
        table[index] = AtomicPathInfo(
            pcs=pcs, steps=steps, successors=tuple(successors),
        )
        return index

    for pc in sorted(machine.pcs):
        if not cls.breaking.get(pc, True):
            continue
        for step in machine.steps_at(pc):
            nxt = step.target
            if nxt is None:
                # Frame pops/terminals are single-step atomic actions.
                table.append(AtomicPathInfo(
                    pcs=(pc,), steps=(step,),
                    atomic_action_index=action_count,
                ))
                action_count += 1
                continue
            extend((pc, nxt), (step,))
    return table


def render_atomic_level(
    machine: StateMachine,
    classification: AtomicClassification,
    paths: list[AtomicPathInfo],
) -> list[str]:
    """The collapsed atomic level as rendered proof text: the breaking
    table (F* ``pc_index_breaking``) and one atomic action per
    complete path."""
    lines = [
        f"// Atomic level derived from {machine.level_name}:",
        "// pc_index_breaking :=",
    ]
    for pc in sorted(classification.breaking):
        verdict = classification.breaking[pc]
        why = classification.reasons.get(pc)
        note = f"  // {why}" if why else ""
        lines.append(f"//   {pc}: {str(verdict).lower()}{note}")
    for info in paths:
        if not info.complete:
            continue
        effects = "; ".join(
            describe_step_effect(step) for step in info.steps
        )
        lines.append(
            f"// atomic action {info.atomic_action_index}: "
            f"{info.start_pc} -> {info.pcs[-1]} "
            f"[{len(info.steps)} steps] {{ {effects} }}"
        )
    return lines


#: Bounded dynamic simulation: how many reachable start states each
#: path obligation replays (and how many nondet assignments of the
#: path's base step it tries per state).
SIMULATION_STATES = 32
SIMULATION_PARAMS = 4


def _shared_projection(state):
    """Everything any *other* thread (or an invariant over shared
    state) can observe: interior steps of an atomic path must leave
    all of it bit-identical."""
    return (
        state.memory, state.allocation, state.ghosts, state.log,
        state.termination,
        tuple(
            (tid, thread.pc, thread.frames)
            for tid, thread in sorted(state.threads.items())
        ),
    )


def _simulate_path(
    machine: StateMachine,
    info: AtomicPathInfo,
    request: ProofRequest,
) -> Verdict:
    """The per-path simulation check: from every sampled reachable
    state with a thread parked at the path's start PC, the composition
    of the micro-steps equals the atomic action's effect, every
    interior step changes nothing shared, and every successor agrees
    with the compiled stepper."""
    from repro.compiler.stepc import stepper_for

    stepper = stepper_for(machine)
    first = info.steps[0]
    method = machine.pcs[info.start_pc].method
    checked = 0
    states = request.reachable_states(machine)
    try:
        for state in states:
            if checked >= SIMULATION_STATES:
                break
            if state.termination is not None:
                continue
            for tid in sorted(state.threads.keys()):
                thread = state.threads[tid]
                if thread.pc != info.start_pc or thread.terminated:
                    continue
                if state.atomic_owner not in (None, tid):
                    continue
                assignments = machine.param_assignments(
                    first, method, state, tid
                )[:SIMULATION_PARAMS]
                for params in assignments:
                    verdict = _replay_micro_steps(
                        machine, stepper, info, state, tid, params
                    )
                    if not verdict.ok:
                        return verdict
                    checked += 1
    except StateBudgetExceeded:
        pass  # a bounded sample is all this check claims
    return Verdict("proved", assignments_checked=checked)


def _replay_micro_steps(
    machine, stepper, info, state, tid, params
) -> Verdict:
    cur = state
    fail = None
    for index, step in enumerate(info.steps):
        expected_pc = info.pcs[index] if index < len(info.pcs) else None
        thread = cur.threads.get(tid)
        if thread is None or thread.pc != expected_pc:
            break  # an earlier micro-step popped the frame or crashed
        step_params = dict(params) if index == 0 else {}
        try:
            enabled = step.enabled(machine, cur, tid, step_params)
        except UBSignal:
            enabled = True
        if not enabled:
            break  # blocked interior assume: the path stops here
        tr = Transition(
            tid, step,
            tuple(params) if index == 0 else (),
        )
        nxt = machine.next_state(cur, tr)
        if index > 0 and nxt.termination is None:
            before = _without_thread(_shared_projection(cur), tid)
            after = _without_thread(_shared_projection(nxt), tid)
            if before != after:
                fail = {
                    "path": info.pcs,
                    "micro_step": index,
                    "reason": "interior step changed shared state",
                }
                break
        if stepper is not None:
            compiled = _compiled_successor(stepper, cur, tid, step, tr)
            if compiled is not None and compiled != nxt:
                fail = {
                    "path": info.pcs,
                    "micro_step": index,
                    "reason": (
                        "compiled stepper disagrees with the "
                        "interpreted micro-step"
                    ),
                }
                break
        cur = nxt
        if cur.termination is not None:
            break
    if fail is not None:
        return bool_verdict(False, fail)
    return proved()


def _without_thread(projection, tid):
    memory, allocation, ghosts, log, termination, threads = projection
    return (
        memory, allocation, ghosts, log, termination,
        tuple(t for t in threads if t[0] != tid),
    )


def _compiled_successor(stepper, state, tid, step, tr):
    """The compiled stepper's successor for exactly this transition
    (``None`` when the stepper does not enumerate it, e.g. the thread
    is not schedulable at *state*)."""
    try:
        pairs = stepper.fn(state)
    except Exception:
        return None
    for candidate, nxt in pairs:
        if (
            candidate.tid == tid
            and candidate.step is step
            and tuple(candidate.params) == tuple(tr.params)
        ):
            return nxt
    return None


class RegularToAtomicStrategy(Strategy):
    """Regular-to-atomic: collapse non-breaking runs into atomic
    actions, discharged by per-path simulation."""

    name = "regular_to_atomic"

    def generate(self, request: ProofRequest) -> ProofScript:
        script = ProofScript(
            proof_name=request.proof.name,
            strategy=self.name,
            low_level=request.proof.low_level,
            high_level=request.proof.high_level,
        )
        script.preamble.extend(
            render_machine_definitions(request.low_machine)
        )
        self._require_identical(request)
        machine = request.low_machine
        cls = classify_atomic(machine)
        if not cls.enabled:
            return self._disabled_script(script, request, cls)
        paths = atomic_paths(machine, cls)
        script.preamble.extend(render_atomic_level(machine, cls, paths))
        script.add(self._breaking_correct_lemma(machine, cls))
        for info in paths:
            if not info.complete or len(info.steps) < 2:
                continue
            script.add(self._path_lemma(machine, request, info))
        return script

    # ------------------------------------------------------------------

    def _require_identical(self, request: ProofRequest) -> None:
        for method in self.common_methods(request):
            low_steps = self.ordered_steps(request.low_machine, method)
            high_steps = self.ordered_steps(request.high_machine, method)
            if len(low_steps) != len(high_steps) or not all(
                steps_identical(low, high)
                for low, high in zip(low_steps, high_steps)
            ):
                raise StrategyError(
                    "regular_to_atomic: the atomic level must carry "
                    "identical statements (it is the same program at "
                    f"coarser granularity); method {method} differs"
                )

    def _disabled_script(
        self,
        script: ProofScript,
        request: ProofRequest,
        cls: AtomicClassification,
    ) -> ProofScript:
        """Conservative self-disable: no collapse, identity refinement
        (the levels are statement-identical, so each statement maps to
        itself and the refinement function is the identity)."""
        reason = cls.disabled or "no non-breaking pcs"
        script.definitional(
            "AtomicCollapseDisabled",
            f"the atomic collapse is disabled: {reason}",
            ["// every pc stays breaking; the levels coincide"],
        )
        script.add(Lemma(
            name="IdentityRefinement",
            statement=(
                f"{request.proof.low_level} and "
                f"{request.proof.high_level} have identical statements, "
                "so the identity function is a refinement"
            ),
            body=["// checked statement-by-statement by the strategy"],
            obligation=lambda: proved(),
        ))
        return script

    def _breaking_correct_lemma(
        self, machine: StateMachine, cls: AtomicClassification
    ) -> Lemma:
        def obligation() -> Verdict:
            from repro.analysis.accesses import extract_accesses
            from repro.analysis.independence import step_independence

            access_map = extract_accesses(machine.ctx, machine)
            facts = step_independence(machine.ctx, machine, access_map)
            for entry in machine.method_entry.values():
                if not cls.breaking.get(entry, False):
                    return bool_verdict(False, {
                        "pc": entry,
                        "reason": "method entry classified non-breaking",
                    })
            for pc in cls.chain_pcs:
                if pc in cls.loop_heads:
                    return bool_verdict(False, {
                        "pc": pc,
                        "reason": "loop head classified non-breaking",
                    })
                for step in machine.steps_at(pc):
                    reason = step_breaking_reason(
                        step, facts, access_map
                    )
                    if reason is not None:
                        return bool_verdict(False, {
                            "pc": pc, "reason": reason,
                        })
            return proved()

        total = len(cls.breaking)
        return Lemma(
            name="PcBreakingCorrect",
            statement=(
                "armada_pc_breaking_correct: every non-breaking pc "
                "holds only chainable local steps, every created "
                "thread starts at a breaking pc "
                f"({total - len(cls.chain_pcs)}/{total} breaking)"
            ),
            body=[
                "// re-audits the classification from fresh analyzer",
                "// footprints and independence facts",
            ],
            obligation=obligation,
        )

    def _path_lemma(
        self,
        machine: StateMachine,
        request: ProofRequest,
        info: AtomicPathInfo,
    ) -> Lemma:
        cls = classify_atomic(machine)

        def obligation() -> Verdict:
            # Static re-audit first: a collapse through a pc that is
            # actually breaking is unsound and must be rejected before
            # any dynamic sampling can vacuously pass it.
            for pc in info.pcs[1:-1]:
                if cls.breaking.get(pc, True):
                    return bool_verdict(False, {
                        "path": info.pcs,
                        "pc": pc,
                        "reason": cls.reasons.get(
                            pc, "interior pc is breaking"
                        ),
                    })
            return _simulate_path(machine, info, request)

        effects = "; ".join(
            describe_step_effect(step) for step in info.steps
        )
        return Lemma(
            name=(
                f"AtomicPathSimulates_{info.atomic_action_index}"
            ),
            statement=(
                f"atomic action {info.atomic_action_index} "
                f"({info.start_pc} -> {info.pcs[-1]}) equals the "
                f"composition of its {len(info.steps)} micro-steps: "
                f"{{ {effects} }}"
            ),
            body=[
                "// bounded per-path simulation over sampled reachable",
                "// states; interior steps leave shared state intact;",
                "// each micro-step cross-checked against the compiled",
                "// stepper",
            ],
            obligation=obligation,
            pc=info.start_pc,
        )


# ---------------------------------------------------------------------------
# Engine-side collapse (``armada verify --atomic``)


def collapse_proof_script(
    script: ProofScript,
    classification: AtomicClassification,
) -> int:
    """Merge consecutive obligation-bearing lemmas along non-breaking
    runs into single atomic-block lemmas; returns how many lemmas were
    absorbed.  A block opens at any pc-tagged obligation lemma and
    extends while the following lemmas' PCs are non-breaking — the
    lemma order of the statement-aligned strategies follows program
    order, so a block is exactly one atomic path's statement run.
    Verdict-identical by construction: the merged obligation runs the
    member obligations in order and returns the first failure."""
    if not classification.enabled:
        return 0
    breaking = classification.breaking
    chain = classification.chain_pcs
    out: list[Lemma] = []
    block: list[Lemma] = []

    def flush() -> None:
        if len(block) >= 2:
            out.append(_merge_block(block))
        else:
            out.extend(block)
        block.clear()

    for lemma in script.lemmas:
        mergeable = (
            lemma.obligation is not None
            and lemma.pc is not None
            and lemma.pc in breaking
        )
        if not mergeable:
            flush()
            out.append(lemma)
        elif block and lemma.pc in chain:
            block.append(lemma)
        else:
            flush()
            block.append(lemma)
    flush()
    absorbed = len(script.lemmas) - len(out)
    script.lemmas[:] = out
    return absorbed


def _merge_block(block: list[Lemma]) -> Lemma:
    members = tuple(block)
    first = members[0]

    def obligation() -> Verdict:
        last: Verdict = proved()
        for member in members:
            verdict = member.obligation()
            if not verdict.ok:
                cex = dict(verdict.counterexample or {})
                cex.setdefault("lemma", member.name)
                return Verdict(verdict.status, cex,
                               verdict.assignments_checked)
            last = verdict
        return last

    body = [
        f"// atomic block: {len(members)} consecutive statements on a",
        "// non-breaking run discharge as one obligation:",
    ]
    for member in members:
        body.append(f"//   {member.name}: {member.statement}")
    return Lemma(
        name=f"AtomicBlock_{first.name}_x{len(members)}",
        statement=(
            f"the atomic block starting at {first.pc} discharges "
            f"{len(members)} statement obligations "
            f"({', '.join(m.name for m in members)})"
        ),
        body=body,
        obligation=obligation,
        customization=[
            line for member in members for line in member.customization
        ],
        pc=first.pc,
    )
