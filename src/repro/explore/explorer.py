"""Explicit-state exploration of Armada state machines.

The explorer enumerates every reachable state of a translated level
under all thread interleavings (including x86-TSO store-buffer drain
transitions), honouring atomic-region scheduling.  It is the bounded
model checker that discharges whole-program obligations in this
reproduction (see DESIGN.md: it plays the role Dafny/Z3 play in the
paper's toolchain, with bounded instead of unbounded guarantees).

One breadth-first search (:meth:`Explorer._search`) does every sweep:
it owns the seen table, the state budget and the parent pointers.  The
four public entry points only consume what it yields — ``explore``
checks invariants and records outcomes, ``reachable_states`` yields the
states, ``walk`` hands each state to a visitor, ``successor_table``
keeps every state's successors — so they admit the same states.  The
search is unreduced: every enabled transition of every admitted state
is taken (DESIGN.md, "Exploration: honest bounds", records why the
partial-order reductions and the atomic lift were removed).

Three contracts this module is careful about:

* **Order**: exploration is genuine breadth-first (``deque.popleft``),
  so the first path that reaches a state is a shortest path and every
  reported counterexample trace is minimal.
* **Budget**: ``max_states`` is a hard upper bound on the number of
  *distinct* states admitted (the initial state counts).  Truncation is
  never silent — ``reachable_states``, ``successor_table`` and
  ``final_logs`` raise :class:`~repro.errors.StateBudgetExceeded`,
  ``walk`` returns ``False``, and ``explore`` sets
  ``hit_state_budget``.
* **Traces**: the search keeps a parent pointer per admitted state, so
  every :class:`InvariantViolation` (and every UB outcome) carries the
  shortest transition sequence that reproduces it from the initial
  state.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Iterable, Iterator

from repro.compiler.stepc import successors_for
from repro.errors import StateBudgetExceeded
from repro.machine.program import StateMachine, Transition
from repro.machine.state import ProgramState, TERM_UB
from repro.obs import OBS
from repro.record import Fresh, Record


class InvariantViolation(Record):
    """A reachable state where a checked invariant failed.

    ``trace`` is the shortest transition sequence from the initial
    state to ``state`` (replayable via ``machine.next_state``).
    """

    state: ProgramState
    invariant_name: str
    trace: tuple[Transition, ...] = ()

    def format_trace(self) -> str:
        return " ; ".join(t.describe() for t in self.trace) or "<initial>"


class ExplorationResult(Record):
    """Summary of a full (or budget-capped) exploration."""

    states_visited: int = 0
    transitions_taken: int = 0
    final_outcomes: set = Fresh(set)
    ub_reasons: list[str] = Fresh(list)
    #: Shortest trace to each UB outcome, aligned with ``ub_reasons``.
    ub_traces: list[tuple[Transition, ...]] = Fresh(list)
    assert_failures: int = 0
    violations: list[InvariantViolation] = Fresh(list)
    hit_state_budget: bool = False
    #: Always None: the search has no reduction to count.  Kept because
    #: the end-to-end benchmark's layer tracer
    #: (``benchmarks/e2e/trace_layers.py``) reads it.
    por_stats: None = None

    @property
    def has_ub(self) -> bool:
        return bool(self.ub_reasons)

    @property
    def ok(self) -> bool:
        return not self.violations and not self.hit_state_budget


def exploration_summary(
    machine: StateMachine, level: str, result: ExplorationResult
) -> dict[str, Any]:
    """*result* as the JSON-able payload of ``armada explore --json``
    and of the serve daemon's explore jobs."""
    outcomes = sorted(
        result.final_outcomes,
        key=lambda o: (o[0], tuple(map(str, o[1]))),
    )
    return {
        "level": level,
        "memory_model": machine.memmodel.name,
        "states": result.states_visited,
        "transitions": result.transitions_taken,
        "outcomes": [
            {"kind": kind, "log": list(log)} for kind, log in outcomes
        ],
        "ub": [
            {"reason": reason, "trace": [t.describe() for t in trace]}
            for reason, trace in zip(result.ub_reasons, result.ub_traces)
        ],
        "violations": [
            {
                "invariant": v.invariant_name,
                "trace": [t.describe() for t in v.trace],
            }
            for v in result.violations
        ],
        "hit_state_budget": result.hit_state_budget,
    }


class _Sweep(Record):
    """What one run of :meth:`Explorer._search` leaves its consumer."""

    #: state -> (parent, transition), None for the initial state: the
    #: seen table and the trace pointers in one.
    parents: dict = Fresh(dict)
    #: Transitions taken, one per (state, successor) pair expanded.
    transitions: int = 0
    #: A successor was refused because the state budget was full.
    truncated: bool = False


class Explorer:
    """Breadth-first enumeration of the reachable state space, stepping
    through :func:`repro.compiler.stepc.successors_for`."""

    def __init__(
        self, machine: StateMachine, max_states: int = 2_000_000
    ) -> None:
        self.machine = machine
        self.max_states = max_states
        self.successors = successors_for(machine)

    # ------------------------------------------------------------------

    def _search(
        self, start: ProgramState | None, sweep: _Sweep
    ) -> Iterator[tuple[ProgramState, list]]:
        """The breadth-first search behind every entry point.

        Yields each admitted state once, in BFS order, with its
        ``(transition, successor)`` pairs.  Every popped state is
        stepped, terminal ones included (they step to nothing).  Once
        the budget is full the remaining admitted states are still
        stepped and yielded; successors are refused.
        """
        successors_of = self.successors
        max_states = self.max_states
        parents = sweep.parents
        initial = start if start is not None else self.machine.initial_state()
        parents[initial] = None
        frontier: deque[ProgramState] = deque((initial,))
        taken = intern_hits = 0
        truncated = False
        while frontier:
            state = frontier.popleft()
            pairs = successors_of(state)
            yield state, pairs
            taken += len(pairs)
            for transition, nxt in pairs:
                if nxt in parents:
                    intern_hits += 1
                    continue
                if len(parents) >= max_states:
                    truncated = True
                    continue
                parents[nxt] = (state, transition)
                frontier.append(nxt)
        sweep.transitions = taken
        sweep.truncated = truncated
        if OBS.enabled:
            OBS.count("explorer.states_admitted", len(parents))
            OBS.count("explorer.intern_hits", intern_hits)
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

    def successor_table(
        self, start: ProgramState | None = None
    ) -> dict[ProgramState, list[tuple[Transition, ProgramState]]]:
        """Every reachable state, in BFS order, mapped to its
        ``(transition, successor)`` pairs: the transition relation,
        with each state stepped once.

        Successors are interned against the table's keys, so equal
        states are one object and a lookup or comparison among them
        succeeds on identity.  Raises :class:`StateBudgetExceeded` when
        the budget cut the sweep short, like ``reachable_states``.
        """
        sweep = _Sweep()
        table: dict[ProgramState, list] = {}
        intern = {}.setdefault
        for state, pairs in self._search(start, sweep):
            table[intern(state, state)] = [
                (transition, intern(nxt, nxt)) for transition, nxt in pairs
            ]
        if sweep.truncated:
            raise StateBudgetExceeded(self.max_states)
        return table

    def walk(
        self,
        visit: Callable[[ProgramState, list[Transition]], bool],
        start: ProgramState | None = None,
    ) -> bool:
        """Visit every reachable state (BFS) together with its enabled
        transitions (the ingredients of the analyzer's dynamic race
        scan).  *visit* returns ``False`` to stop early.  ``walk``
        returns ``True`` iff the bounded state space was covered
        completely: no early stop and no state-budget hit — only then
        may a caller treat the absence of a witness as a refutation.
        """
        sweep = _Sweep()
        for state, pairs in self._search(start, sweep):
            if visit(state, [pair[0] for pair in pairs]) is False:
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
        with OBS.span("explore", "phase", level=self.machine.level_name,
                      memory_model=self.machine.memmodel.name):
            result = ExplorationResult()
            sweep = _Sweep()
            parents = sweep.parents
            for state, pairs in self._search(start, sweep):
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
                elif not pairs:
                    result.final_outcomes.add(("deadlock", state.log))
            result.transitions_taken = sweep.transitions
            result.hit_state_budget = sweep.truncated
            if OBS.enabled:
                OBS.count("explorer.transitions_taken",
                          result.transitions_taken)
            return result


def _trace_to(parents: dict, node: Any) -> tuple[Transition, ...]:
    """Walk the parent pointers (``node -> (parent, transition)``, None
    at the root) back from *node*: the transitions from the root to
    *node*.  A node is a state here and a product state in the
    refinement check."""
    trace: list[Transition] = []
    current = node
    while True:
        entry = parents[current]
        if entry is None:
            break
        current, transition = entry
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
