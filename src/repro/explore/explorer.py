"""Explicit-state exploration of Armada state machines.

The explorer enumerates every reachable state of a translated level
under all thread interleavings (including x86-TSO store-buffer drain
transitions), honouring atomic-region scheduling.  It is the bounded
model checker that discharges whole-program obligations in this
reproduction (see DESIGN.md: it plays the role Dafny/Z3 play in the
paper's toolchain, with bounded instead of unbounded guarantees).

One breadth-first search (:meth:`Explorer._search`) does every sweep:
it owns the seen/intern table, the state budget, the reductions below
and, when asked, parent pointers.  The three public entry points only
consume what it yields — ``explore`` checks invariants and records
outcomes, ``reachable_states`` yields the states, ``walk`` hands each
state to a visitor — so under any configuration they admit the same
states.

Three contracts this module is careful about:

* **Order**: exploration is genuine breadth-first (``deque.popleft``),
  so the first path that reaches a state is a shortest path and every
  reported counterexample trace is minimal.
* **Budget**: ``max_states`` is a hard upper bound on the number of
  *distinct* states admitted (the initial state counts).  Truncation is
  never silent — ``reachable_states`` and ``final_logs`` raise
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
from typing import Callable, Iterable, Iterator

from repro.compiler.stepc import stepper_for, successors_for
from repro.errors import StateBudgetExceeded
from repro.explore.atomic import AtomicLift, AtomicStats, MacroTransition
from repro.explore.dpor import DynamicReducer, SleepSets
from repro.explore.por import AmpleReducer, PorStats
from repro.machine.program import StateMachine, Transition
from repro.machine.state import ProgramState, TERM_UB
from repro.obs import OBS


@dataclass
class InvariantViolation:
    """A reachable state where a checked invariant failed.

    ``trace`` is the shortest transition sequence from the initial
    state to ``state`` (replayable via ``machine.next_state``).
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
    #: Reduction counters for this exploration (None when neither POR
    #: nor dynamic POR was active).
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


@dataclass
class _Sweep:
    """What one run of :meth:`Explorer._search` leaves its consumer."""

    #: state -> (parent, transition), None for the initial state; kept
    #: only when the consumer asks for it (traces).
    parents: dict | None = None
    #: Expanded transitions (re-expansions count again).
    transitions: int = 0
    #: Enabled transitions skipped because they were asleep.
    sleep_pruned: int = 0
    #: A successor was refused because the state budget was full.
    truncated: bool = False


class Explorer:
    """Breadth-first enumeration of the reachable state space.

    ``por`` selects static partial-order reduction: ``None``/``False``
    for the full interleaving fan-out, ``True`` to build a fresh
    :class:`AmpleReducer` for this machine, or an existing reducer to
    share its (lazily computed) independence facts across explorations.
    ``dpor`` selects the dynamic reducer (+ sleep sets) the same way
    and takes precedence over ``por``.  ``atomic`` turns on the
    regular-to-atomic lift (:class:`~repro.explore.atomic.AtomicLift`
    or ``True`` for a fresh one); it composes with either reducer and
    self-disables when the machine's classification is unavailable.
    """

    def __init__(
        self,
        machine: StateMachine,
        max_states: int = 2_000_000,
        por: AmpleReducer | bool | None = None,
        compiled: bool = True,
        dpor: "DynamicReducer | bool | None" = None,
        atomic: "AtomicLift | bool | None" = None,
    ) -> None:
        self.machine = machine
        self.max_states = max_states
        memmodel = getattr(machine, "memmodel", None)
        #: Why requested reductions were dropped (None when honoured).
        self.reductions_disabled: str | None = None
        if (por or dpor or atomic) and memmodel is not None \
                and not memmodel.supports_por:
            # The independence arguments do not cover this model's
            # environment moves (RA view advances); fall back to full
            # expansion rather than prune unsoundly.
            self.reductions_disabled = (
                f"memory model {memmodel.name} does not support "
                f"reductions; exploring unreduced"
            )
            por = dpor = atomic = None
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
        # Compiled step specialization (repro.compiler.stepc): one flat
        # enabled_and_next(state) per machine under every memory model,
        # with automatic fallback to the interpreter (stepper_for
        # returns None only when codegen fails).
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

    def _search(
        self, start: ProgramState | None, sweep: _Sweep
    ) -> Iterator[tuple[ProgramState, list[Transition]]]:
        """The breadth-first search behind every entry point.

        Yields each admitted state once, in BFS order, with its **full**
        enabled-transition list; the reductions only narrow which
        successors are admitted.  Every popped state is stepped,
        terminal ones included (they step to nothing).  Under sleep
        sets a state re-reached with a smaller sleep set than it was
        expanded with is expanded again on the intersection — sets only
        shrink, so this terminates — but not yielded again.  Once the
        budget is full the remaining admitted states are still stepped
        and yielded; successors are refused.
        """
        successors_of = self.successors
        reducer = self.reducer
        lift = self.atomic
        sleep_sets = self.sleep
        max_states = self.max_states
        parents = sweep.parents
        initial = start if start is not None else self.machine.initial_state()
        # The seen dict doubles as the interning table: each admitted
        # state is its own canonical representative, and equal
        # successors are dropped after one (cached-) hash lookup.
        seen: dict[ProgramState, ProgramState] = {initial: initial}
        if parents is not None:
            parents[initial] = None
        frontier: deque[ProgramState] = deque((initial,))
        if sleep_sets is not None:
            sleep: dict[ProgramState, frozenset] = {initial: frozenset()}
            expanded: set[ProgramState] = set()
            queued: set[ProgramState] = {initial}
        taken = intern_hits = sleep_pruned = 0
        truncated = False
        while frontier:
            state = frontier.popleft()
            pairs = successors_of(state)
            transitions = [p[0] for p in pairs]
            if sleep_sets is None:
                yield state, transitions
            else:
                queued.discard(state)
                if state not in expanded:
                    expanded.add(state)
                    yield state, transitions
            if not transitions:
                continue
            used = transitions
            successors = [p[1] for p in pairs]
            if reducer is not None:
                reduced = reducer.ample(state, transitions, seen, successors)
                if reduced is not None:
                    used, successors = reduced
            if sleep_sets is None:
                for tr, nxt in zip(used, successors):
                    taken += 1
                    if lift is not None:
                        tr, nxt = lift.chain(tr, nxt)
                    if nxt in seen:
                        intern_hits += 1
                        continue
                    if len(seen) >= max_states:
                        truncated = True
                        continue
                    seen[nxt] = nxt
                    if parents is not None:
                        parents[nxt] = (state, tr)
                    frontier.append(nxt)
                continue
            active_idx, asleep = sleep_sets.split(
                used, sleep.get(state, frozenset())
            )
            sleep_pruned += len(used) - len(active_idx)
            fp_cache: dict = {}
            carried: list[Transition] = list(asleep)
            for i in active_idx:
                tr = used[i]
                nxt = successors[i]
                taken += 1
                succ_sleep = sleep_sets.successor_sleep(
                    state, tr, carried, fp_cache
                )
                carried.append(tr)
                if lift is not None:
                    chained_tr, chained_nxt = lift.chain(tr, nxt)
                    if chained_tr is not tr:
                        # The sleep set was derived for the pre-chain
                        # successor; drop it rather than carry it
                        # across the macro edge.
                        succ_sleep = frozenset()
                        tr, nxt = chained_tr, chained_nxt
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
                if len(seen) >= max_states:
                    truncated = True
                    continue
                seen[nxt] = nxt
                sleep[nxt] = succ_sleep
                if parents is not None:
                    parents[nxt] = (state, tr)
                queued.add(nxt)
                frontier.append(nxt)
        sweep.transitions = taken
        sweep.sleep_pruned = sleep_pruned
        sweep.truncated = truncated
        if OBS.enabled:
            OBS.count("explorer.states_admitted", len(seen))
            OBS.count("explorer.intern_hits", intern_hits)
            if sleep_pruned:
                OBS.count("dpor.sleep_pruned", sleep_pruned)
            if truncated:
                OBS.count("explorer.budget_truncated")

    def reachable_states(
        self, start: ProgramState | None = None
    ) -> Iterable[ProgramState]:
        """Yield every reachable state (deduplicated) in BFS order.

        At most ``max_states`` states are yielded.  If the state space
        was not exhausted within the budget, raises
        :class:`StateBudgetExceeded` *after* the final yield — callers
        consuming the enumeration as evidence of full coverage fail
        loudly instead of silently accepting a truncated sweep.
        """
        sweep = _Sweep()
        for state, _ in self._search(start, sweep):
            yield state
        if sweep.truncated:
            raise StateBudgetExceeded(self.max_states)

    def walk(
        self,
        visit: Callable[[ProgramState, list[Transition]], bool],
        start: ProgramState | None = None,
    ) -> bool:
        """Visit every reachable state (BFS) together with its enabled
        transitions (the ingredients of the analyzer's dynamic race
        scan).  *visit* always receives the **full** enabled-transition
        list — reductions only narrow which successors are expanded,
        never what a visitor observes at a state.  *visit* returns
        ``False`` to stop early.  ``walk`` returns ``True`` iff the
        bounded state space was covered completely: no early stop and
        no state-budget hit — only then may a caller treat the absence
        of a witness as a refutation.
        """
        sweep = _Sweep()
        for state, transitions in self._search(start, sweep):
            if visit(state, transitions) is False:
                return False
        return not sweep.truncated

    def explore(
        self,
        invariants: dict[str, Callable[[ProgramState], bool]] | None = None,
        start: ProgramState | None = None,
    ) -> ExplorationResult:
        """Explore exhaustively (BFS), checking *invariants* at every
        state.  Violations and UB outcomes carry shortest replayable
        traces, reconstructed from per-state parent pointers."""
        memmodel = getattr(self.machine, "memmodel", None)
        with OBS.span("explore", "phase", level=self.machine.level_name,
                      por=self.reducer is not None,
                      dpor=isinstance(self.reducer, DynamicReducer),
                      atomic=self.atomic is not None,
                      compiled=self.stepper is not None,
                      memory_model=memmodel.name if memmodel else "tso"):
            result = ExplorationResult()
            stats_before = (
                dataclasses.replace(self.reducer.stats)
                if self.reducer is not None else None
            )
            sweep = _Sweep(parents={})
            parents = sweep.parents
            for state, transitions in self._search(start, sweep):
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
                termination = state.termination
                if termination is not None:
                    result.final_outcomes.add((termination.kind, state.log))
                    if termination.kind == TERM_UB:
                        result.ub_reasons.append(termination.detail)
                        result.ub_traces.append(_trace_to(parents, state))
                    if termination.kind == "assert_failure":
                        result.assert_failures += 1
                elif not transitions:
                    result.final_outcomes.add(("deadlock", state.log))
            result.transitions_taken = sweep.transitions
            result.hit_state_budget = sweep.truncated
            if stats_before is not None:
                after = self.reducer.stats
                result.por_stats = PorStats(
                    ample_states=after.ample_states
                    - stats_before.ample_states,
                    full_states=after.full_states - stats_before.full_states,
                    transitions_pruned=after.transitions_pruned
                    - stats_before.transitions_pruned,
                    dynamic_states=after.dynamic_states
                    - stats_before.dynamic_states,
                    sleep_pruned=sweep.sleep_pruned,
                )
            if self.atomic is not None:
                result.atomic_stats = self.atomic.stats
            if OBS.enabled:
                OBS.count("explorer.transitions_taken",
                          result.transitions_taken)
                if self.atomic is not None:
                    OBS.count("atomic.chains", self.atomic.stats.chains)
                    OBS.count("atomic.micro_absorbed",
                              self.atomic.stats.micro_absorbed)
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


def final_logs(machine: StateMachine, max_states: int = 2_000_000) -> set:
    """All (termination kind, log) outcomes of a machine's behaviours.

    Raises :class:`StateBudgetExceeded` when the sweep hit
    *max_states*: a truncated outcome set is never reported as all of
    them."""
    result = Explorer(machine, max_states).explore()
    if result.hit_state_budget:
        raise StateBudgetExceeded(max_states)
    return result.final_outcomes
