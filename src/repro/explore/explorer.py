"""Explicit-state exploration of Armada state machines.

The explorer enumerates every reachable state of a translated level
under all thread interleavings (including x86-TSO store-buffer drain
transitions), honouring atomic-region scheduling.  It is the bounded
model checker that discharges whole-program obligations in this
reproduction (see DESIGN.md: it plays the role Dafny/Z3 play in the
paper's toolchain, with bounded instead of unbounded guarantees).

Three contracts this module is careful about:

* **Order**: exploration is genuine breadth-first (``deque.popleft``),
  so the first path that reaches a state is a shortest path and every
  reported counterexample trace is minimal.
* **Budget**: ``max_states`` is a hard upper bound on the number of
  *distinct* states admitted (the initial state counts).  Truncation is
  never silent — ``reachable_states`` raises
  :class:`~repro.errors.StateBudgetExceeded`, ``walk`` returns
  ``False``, and ``explore`` sets ``hit_state_budget``.
* **Traces**: ``explore`` keeps a parent pointer per admitted state, so
  every :class:`InvariantViolation` (and every UB outcome) carries the
  shortest transition sequence that reproduces it from the initial
  state.

Reductions (all opt-in, all preserving verdicts, UB reasons and
assertion outcomes):

* ``por=True`` — static ample-set partial-order reduction
  (:class:`~repro.explore.por.AmpleReducer`).
* ``dpor=True`` — dynamic POR: the footprint-driven ample rule plus
  sleep sets (:mod:`repro.explore.dpor`).  Implies the static rule.
* ``symmetry=True`` — canonicalization over interchangeable worker
  threads (:mod:`repro.explore.symmetry`).  With symmetry on, recorded
  traces step between canonical representatives; replay them with
  :func:`canonical_replay`.
* ``atomic=True`` — the regular-to-atomic lift
  (:mod:`repro.explore.atomic`): runs of non-PC-breaking local steps
  execute as single atomic actions, hiding the intermediate states.
  Recorded traces flatten macro actions back into micro transitions,
  so they replay with plain ``next_state``.

Memory models without POR support (C11 RA) silently fall back to
unreduced exploration for all of these — ``reductions_disabled``
records why.  Callers that inspect *every* state/transition pair for their own
purposes (the analyzer's race scan) must leave all reductions off.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.compiler.stepc import stepper_for, successors_for
from repro.errors import StateBudgetExceeded
from repro.explore.atomic import AtomicLift, AtomicStats, MacroTransition
from repro.explore.dpor import DynamicReducer, SleepSets
from repro.explore.por import AmpleReducer, PorStats
from repro.explore.symmetry import SymmetryReducer
from repro.machine.program import StateMachine, Transition
from repro.machine.state import ProgramState, TERM_UB
from repro.obs import OBS


@dataclass
class InvariantViolation:
    """A reachable state where a checked invariant failed.

    ``trace`` is the shortest transition sequence from the initial
    state to ``state`` (replayable via ``machine.next_state``, or
    :func:`canonical_replay` when symmetry reduction was active).
    """

    state: ProgramState
    invariant_name: str
    trace: tuple[Transition, ...] = ()

    def format_trace(self) -> str:
        return " ; ".join(t.describe() for t in self.trace) or "<initial>"


@dataclass
class ExplorationResult:
    """Summary of a full (or budget-capped) exploration."""

    states_visited: int = 0
    transitions_taken: int = 0
    final_outcomes: set = field(default_factory=set)
    ub_reasons: list[str] = field(default_factory=list)
    #: Shortest trace to each UB outcome, aligned with ``ub_reasons``.
    ub_traces: list[tuple[Transition, ...]] = field(default_factory=list)
    assert_failures: int = 0
    violations: list[InvariantViolation] = field(default_factory=list)
    hit_state_budget: bool = False
    #: Reduction counters for this exploration (None when no reduction
    #: — POR, dynamic POR, or symmetry — was active).
    por_stats: PorStats | None = None
    #: Chain counters from the regular-to-atomic lift (None when the
    #: lift was off or self-disabled).
    atomic_stats: "AtomicStats | None" = None

    @property
    def has_ub(self) -> bool:
        return bool(self.ub_reasons)

    @property
    def ok(self) -> bool:
        return not self.violations and not self.hit_state_budget


class _CanonicalSeen:
    """Membership view over the seen set modulo symmetry, for the
    reducer's C3 check: a successor whose *representative* was already
    admitted counts as seen."""

    __slots__ = ("seen", "sym")

    def __init__(self, seen: dict, sym: SymmetryReducer) -> None:
        self.seen = seen
        self.sym = sym

    def __contains__(self, state: ProgramState) -> bool:
        return self.sym.canonical(state) in self.seen


class Explorer:
    """Breadth-first enumeration of the reachable state space.

    ``por`` selects static partial-order reduction: ``None``/``False``
    for the full interleaving fan-out, ``True`` to build a fresh
    :class:`AmpleReducer` for this machine, or an existing reducer to
    share its (lazily computed) independence facts across explorations.
    ``dpor`` selects the dynamic reducer (+ sleep sets) the same way
    and takes precedence over ``por``; ``symmetry`` composes with
    either (or stands alone).  ``atomic`` turns on the
    regular-to-atomic lift (:class:`~repro.explore.atomic.AtomicLift`
    or ``True`` for a fresh one); it composes with every reduction and
    self-disables when the machine's classification is unavailable.
    """

    def __init__(
        self,
        machine: StateMachine,
        max_states: int = 2_000_000,
        por: AmpleReducer | bool | None = None,
        compiled: bool = True,
        dpor: "DynamicReducer | bool | None" = None,
        symmetry: "SymmetryReducer | bool | None" = None,
        atomic: "AtomicLift | bool | None" = None,
    ) -> None:
        self.machine = machine
        self.max_states = max_states
        memmodel = getattr(machine, "memmodel", None)
        #: Why requested reductions were dropped (None when honoured).
        self.reductions_disabled: str | None = None
        if (por or dpor or symmetry or atomic) and memmodel is not None \
                and not memmodel.supports_por:
            # The independence/symmetry arguments do not cover this
            # model's environment moves (RA view advances); fall back
            # to full expansion rather than prune unsoundly.
            self.reductions_disabled = (
                f"memory model {memmodel.name} does not support "
                f"reductions; exploring unreduced"
            )
            por = dpor = symmetry = atomic = None
        if atomic:
            lift = (atomic if isinstance(atomic, AtomicLift)
                    else AtomicLift(machine))
            if not lift.classification.enabled:
                # Conservative self-disable: unknown classification or
                # no non-breaking PC means there is nothing to chain.
                if lift.classification.disabled is not None \
                        and self.reductions_disabled is None:
                    self.reductions_disabled = (
                        lift.classification.describe()
                    )
                lift = None
            self.atomic: AtomicLift | None = lift
        else:
            self.atomic = None
        reducer: AmpleReducer | None
        if dpor:
            reducer = (dpor if isinstance(dpor, DynamicReducer)
                       else DynamicReducer(machine))
        elif isinstance(por, AmpleReducer):
            reducer = por
        elif por:
            reducer = AmpleReducer(machine)
        else:
            reducer = None
        self.reducer = reducer
        if symmetry:
            self.symmetry: SymmetryReducer | None = (
                symmetry if isinstance(symmetry, SymmetryReducer)
                else SymmetryReducer(machine)
            )
        else:
            self.symmetry = None
        # Compiled step specialization (repro.compiler.stepc): one flat
        # enabled_and_next(state) per machine, with automatic fallback
        # to the interpreter (stepper_for returns None for uncovered
        # machines, e.g. under the RA model).
        self.stepper = stepper_for(machine) if compiled else None
        self.successors = successors_for(machine, compiled)
        #: Sleep sets ride along with the dynamic reducer only: their
        #: independence oracle shares its footprint machinery.  Both
        #: borrow the compiled stepper's per-step footprint metadata
        #: when available.
        self.sleep: SleepSets | None = (
            SleepSets(machine, stepper=self.stepper)
            if isinstance(reducer, DynamicReducer) else None
        )
        if isinstance(reducer, DynamicReducer) and self.stepper is not None:
            reducer.attach_stepper(self.stepper)

    # ------------------------------------------------------------------

    def _expand(
        self, state: ProgramState
    ) -> tuple[list[Transition], list[ProgramState]]:
        """The full enabled-transition list at *state* and the matching
        successor states."""
        pairs = self.successors(state)
        return [p[0] for p in pairs], [p[1] for p in pairs]

    def _successors(
        self,
        state: ProgramState,
        transitions: list[Transition],
        seen,
        successors: list[ProgramState],
    ) -> tuple[list[Transition], list[ProgramState]]:
        """Transitions to expand at *state* and their successor states
        (the ample subset under POR, everything otherwise)."""
        if self.reducer is not None:
            reduced = self.reducer.ample(state, transitions, seen,
                                         successors)
            if reduced is not None:
                return reduced
        return transitions, successors

    def _reducer_seen(self, seen: dict):
        if self.symmetry is not None and self.reducer is not None:
            return _CanonicalSeen(seen, self.symmetry)
        return seen

    def reachable_states(
        self, start: ProgramState | None = None
    ) -> Iterable[ProgramState]:
        """Yield every reachable state (deduplicated) in BFS order.

        Under symmetry reduction the canonical representatives are
        yielded.  At most ``max_states`` states are yielded.  If the
        state space was not exhausted within the budget, raises
        :class:`StateBudgetExceeded` *after* the final yield — callers
        consuming the enumeration as evidence of full coverage fail
        loudly instead of silently accepting a truncated sweep.
        """
        machine = self.machine
        sym = self.symmetry
        initial = start if start is not None else machine.initial_state()
        if sym is not None:
            initial = sym.canonical(initial)
        # The seen dict doubles as the interning table: each admitted
        # state is its own canonical representative, and equal
        # successors are dropped after one (cached-) hash lookup.
        seen: dict[ProgramState, ProgramState] = {initial: initial}
        reducer_seen = self._reducer_seen(seen)
        frontier: deque[ProgramState] = deque((initial,))
        truncated = False
        intern_hits = 0
        while frontier:
            state = frontier.popleft()
            yield state
            if truncated:
                # The budget has tripped: no successor can be admitted
                # any more, so expanding the remaining frontier would be
                # dead next_state work.  Keep draining (and yielding)
                # the states already admitted.
                continue
            transitions, successors = self._expand(state)
            used, successors = self._successors(
                state, transitions, reducer_seen, successors
            )
            if self.atomic is not None:
                successors = [
                    self.atomic.chain(tr, nxt)[1]
                    for tr, nxt in zip(used, successors)
                ]
            for nxt in successors:
                if sym is not None:
                    nxt = sym.canonical(nxt)
                if nxt in seen:
                    intern_hits += 1
                    continue
                if len(seen) >= self.max_states:
                    truncated = True
                    continue
                seen[nxt] = nxt
                frontier.append(nxt)
        if OBS.enabled:
            OBS.count("explorer.states_admitted", len(seen))
            OBS.count("explorer.intern_hits", intern_hits)
            if truncated:
                OBS.count("explorer.budget_truncated")
        if truncated:
            raise StateBudgetExceeded(self.max_states)

    def walk(
        self,
        visit: Callable[[ProgramState, list[Transition]], bool],
        start: ProgramState | None = None,
    ) -> bool:
        """Visit every reachable state (BFS) together with its enabled
        transitions (the ingredients of the analyzer's dynamic race
        scan).  *visit* always receives the **full** enabled-transition
        list — POR only narrows which successors are expanded, never
        what a visitor observes at a state.  Symmetry canonicalization
        is deliberately *not* applied here: the analyzer inspects raw
        states.  *visit* returns ``False`` to stop early.  ``walk``
        returns ``True`` iff the bounded state space was covered
        completely: no early stop and no state-budget hit — only then
        may a caller treat the absence of a witness as a refutation.
        """
        machine = self.machine
        initial = start if start is not None else machine.initial_state()
        seen: dict[ProgramState, ProgramState] = {initial: initial}
        frontier: deque[ProgramState] = deque((initial,))
        complete = True
        while frontier:
            state = frontier.popleft()
            transitions, successors = self._expand(state)
            if visit(state, transitions) is False:
                return False
            if not complete:
                # Budget already hit: every new successor would be
                # refused.  Remaining admitted states are still visited
                # above with their full transition lists.
                continue
            _, successors = self._successors(
                state, transitions, seen, successors
            )
            for nxt in successors:
                if nxt in seen:
                    continue
                if len(seen) >= self.max_states:
                    complete = False
                    continue
                seen[nxt] = nxt
                frontier.append(nxt)
        if OBS.enabled:
            OBS.count("explorer.states_admitted", len(seen))
            if not complete:
                OBS.count("explorer.budget_truncated")
        return complete

    def explore(
        self,
        invariants: dict[str, Callable[[ProgramState], bool]] | None = None,
        start: ProgramState | None = None,
    ) -> ExplorationResult:
        """Explore exhaustively (BFS), checking *invariants* at every
        state.  Violations and UB outcomes carry shortest replayable
        traces, reconstructed from per-state parent pointers."""
        if not OBS.enabled:
            return self._explore(invariants, start)
        memmodel = getattr(self.machine, "memmodel", None)
        with OBS.span("explore", "phase", level=self.machine.level_name,
                      por=self.reducer is not None,
                      dpor=isinstance(self.reducer, DynamicReducer),
                      symmetry=self.symmetry is not None,
                      atomic=self.atomic is not None,
                      compiled=self.stepper is not None,
                      memory_model=memmodel.name if memmodel else "tso"):
            result = self._explore(invariants, start)
            OBS.count("explorer.states_admitted", result.states_visited)
            OBS.count("explorer.transitions_taken",
                      result.transitions_taken)
            if self.atomic is not None:
                OBS.count("atomic.chains", self.atomic.stats.chains)
                OBS.count("atomic.micro_absorbed",
                          self.atomic.stats.micro_absorbed)
            return result

    def _explore(
        self,
        invariants: dict[str, Callable[[ProgramState], bool]] | None = None,
        start: ProgramState | None = None,
    ) -> ExplorationResult:
        machine = self.machine
        sym = self.symmetry
        sleep_sets = self.sleep
        initial = start if start is not None else machine.initial_state()
        if sym is not None:
            initial = sym.canonical(initial)
        result = ExplorationResult()
        stats_before = (
            dataclasses.replace(self.reducer.stats)
            if self.reducer is not None else None
        )
        sym_before = sym.canonicalized if sym is not None else 0
        seen: dict[ProgramState, ProgramState] = {initial: initial}
        reducer_seen = self._reducer_seen(seen)
        parents: dict[
            ProgramState, tuple[ProgramState, Transition] | None
        ] = {initial: None}
        frontier: deque[ProgramState] = deque((initial,))
        intern_hits = 0
        sleep_pruned = 0
        #: Per-state sleep sets and re-expansion bookkeeping (dynamic
        #: POR only).  A state re-reached with a smaller sleep set than
        #: it was expanded with is re-expanded on the intersection —
        #: sets only shrink, so this terminates.
        sleep: dict[ProgramState, frozenset] = (
            {initial: frozenset()} if sleep_sets is not None else {}
        )
        expanded: set[ProgramState] = set()
        queued: set[ProgramState] = {initial}
        while frontier:
            state = frontier.popleft()
            queued.discard(state)
            first = state not in expanded
            expanded.add(state)
            if first:
                result.states_visited += 1
                if invariants:
                    for name, predicate in invariants.items():
                        try:
                            holds = predicate(state)
                        except Exception:  # predicate crashed: failure
                            holds = False
                        if not holds:
                            result.violations.append(InvariantViolation(
                                state, name,
                                trace=_trace_to(parents, state),
                            ))
                if state.termination is not None:
                    result.final_outcomes.add(
                        (state.termination.kind, state.log)
                    )
                    if state.termination.kind == TERM_UB:
                        result.ub_reasons.append(state.termination.detail)
                        result.ub_traces.append(_trace_to(parents, state))
                    if state.termination.kind == "assert_failure":
                        result.assert_failures += 1
                    continue
            elif state.termination is not None:  # pragma: no cover
                continue
            transitions, successors = self._expand(state)
            if not transitions:
                if first:
                    result.final_outcomes.add(("deadlock", state.log))
                continue
            used, successors = self._successors(
                state, transitions, reducer_seen, successors
            )
            if sleep_sets is not None:
                active_idx, asleep = sleep_sets.split(
                    used, sleep.get(state, frozenset())
                )
                sleep_pruned += len(used) - len(active_idx)
                fp_cache: dict = {}
                carried: list[Transition] = list(asleep)
                for i in active_idx:
                    tr = used[i]
                    nxt = successors[i]
                    result.transitions_taken += 1
                    succ_sleep = sleep_sets.successor_sleep(
                        state, tr, carried, fp_cache
                    )
                    carried.append(tr)
                    if self.atomic is not None:
                        chained_tr, chained_nxt = self.atomic.chain(
                            tr, nxt
                        )
                        if chained_tr is not tr:
                            # The sleep set was derived for the
                            # pre-chain successor; drop it rather than
                            # carry it across the macro edge.
                            succ_sleep = frozenset()
                            tr, nxt = chained_tr, chained_nxt
                    if sym is not None:
                        canon = sym.canonical(nxt)
                        if canon is not nxt:
                            # Sleep entries name transitions by tid;
                            # the renaming invalidates them.
                            succ_sleep = frozenset()
                            nxt = canon
                    if nxt in seen:
                        intern_hits += 1
                        if nxt.termination is None:
                            stored = sleep.get(nxt, frozenset())
                            inter = stored & succ_sleep
                            if inter != stored:
                                sleep[nxt] = inter
                                if nxt in expanded and nxt not in queued:
                                    queued.add(nxt)
                                    frontier.append(nxt)
                        continue
                    if len(seen) >= self.max_states:
                        result.hit_state_budget = True
                        continue
                    seen[nxt] = nxt
                    sleep[nxt] = succ_sleep
                    parents[nxt] = (state, tr)
                    queued.add(nxt)
                    frontier.append(nxt)
                continue
            for tr, nxt in zip(used, successors):
                result.transitions_taken += 1
                if self.atomic is not None:
                    tr, nxt = self.atomic.chain(tr, nxt)
                if sym is not None:
                    nxt = sym.canonical(nxt)
                if nxt in seen:
                    intern_hits += 1
                    continue
                if len(seen) >= self.max_states:
                    result.hit_state_budget = True
                    continue
                seen[nxt] = nxt
                parents[nxt] = (state, tr)
                frontier.append(nxt)
        if OBS.enabled:
            OBS.count("explorer.intern_hits", intern_hits)
            if sleep_pruned:
                OBS.count("dpor.sleep_pruned", sleep_pruned)
        sym_merged = (sym.canonicalized - sym_before) if sym is not None \
            else 0
        if self.reducer is not None or sym is not None \
                or sleep_sets is not None:
            after = self.reducer.stats if self.reducer is not None else None
            result.por_stats = PorStats(
                ample_states=(
                    after.ample_states - stats_before.ample_states
                    if after is not None else 0
                ),
                full_states=(
                    after.full_states - stats_before.full_states
                    if after is not None else 0
                ),
                transitions_pruned=(
                    after.transitions_pruned
                    - stats_before.transitions_pruned
                    if after is not None else 0
                ),
                dynamic_states=(
                    after.dynamic_states - stats_before.dynamic_states
                    if after is not None else 0
                ),
                sleep_pruned=sleep_pruned,
                symmetry_merged=sym_merged,
            )
        if self.atomic is not None:
            result.atomic_stats = self.atomic.stats
        return result


def _trace_to(
    parents: dict, state: ProgramState
) -> tuple[Transition, ...]:
    """Walk the parent pointers back to the initial state.  Macro
    transitions recorded by the atomic lift are flattened back into
    their micro steps so the trace replays with plain ``next_state``."""
    trace: list[Transition] = []
    current = state
    while True:
        entry = parents[current]
        if entry is None:
            break
        current, transition = entry
        if isinstance(transition, MacroTransition):
            trace.extend(reversed(transition.micro))
        else:
            trace.append(transition)
    trace.reverse()
    return tuple(trace)


def canonical_replay(
    machine: StateMachine,
    trace: Iterable[Transition],
    symmetry: SymmetryReducer | None = None,
    start: ProgramState | None = None,
) -> ProgramState:
    """Replay *trace* from the initial state, canonicalizing after each
    step when *symmetry* is given — the replay discipline for traces
    recorded by a symmetry-reduced exploration (each recorded
    transition fired from a canonical representative)."""
    state = start if start is not None else machine.initial_state()
    if symmetry is not None:
        state = symmetry.canonical(state)
    for tr in trace:
        state = machine.next_state(state, tr)
        if symmetry is not None:
            state = symmetry.canonical(state)
    return state


def final_logs(
    machine: StateMachine,
    max_states: int = 2_000_000,
    por: AmpleReducer | bool | None = None,
    compiled: bool = True,
) -> set:
    """All (termination kind, log) outcomes of a machine's behaviours."""
    explorer = Explorer(machine, max_states, por=por, compiled=compiled)
    return explorer.explore().final_outcomes
