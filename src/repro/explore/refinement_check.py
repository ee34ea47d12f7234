"""Refinement (simulation) checking between two state machines.

Implements the paper's refinement notion (§3.1.3): "An implementation
refines the specification if every finite behavior of the implementation
may, with the addition of stuttering steps, simulate a finite behavior
of the specification where corresponding state pairs are in R."

The check is the classical subset construction for stuttering trace
inclusion over finite systems: we pair each reachable low-level state
with the *set* of high-level states it might correspond to.  On each
low-level transition, the high-level set is advanced through its
bounded stutter closure and filtered by R; an empty set is a refinement
counterexample, unless a closure on its path was cut by the stutter
bound, or the high level draws a value from a bounded domain that does
not cover its type: either bound may have hidden the match, so the
result is inconclusive instead.

R is automatically strengthened with the undefined-behaviour conjunct of
§3.2.3: "if the low-level program exhibits undefined behavior, then the
high-level program does."
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from repro.compiler.stepc import successors_for
from repro.explore.explorer import _trace_to
from repro.lang import types as ty
from repro.machine.program import StateMachine
from repro.machine.state import ProgramState, TERM_UB
from repro.record import Record

#: A refinement relation: R(low_state, high_state) -> bool.
RefinementRelation = Callable[[ProgramState, ProgramState], bool]


def log_prefix_relation(low: ProgramState, high: ProgramState) -> bool:
    """The default R: the low-level console log is a prefix of the
    high-level one while running, and equal at normal termination
    (the paper's running-example relation, §2)."""
    if low.termination is not None and low.termination.kind == "normal":
        if not (high.termination is not None
                and high.termination.kind == "normal"):
            return False
        return low.log == high.log
    n = len(low.log)
    return high.log[:n] == low.log or low.log[: len(high.log)] == high.log


def log_equal_relation(low: ProgramState, high: ProgramState) -> bool:
    """A stricter R: logs agree exactly at every corresponding pair."""
    return low.log == high.log


def with_ub_conjunct(relation: RefinementRelation) -> RefinementRelation:
    """Strengthen R with the automatic UB conjunct (§3.2.3)."""

    def strengthened(low: ProgramState, high: ProgramState) -> bool:
        low_ub = (
            low.termination is not None and low.termination.kind == TERM_UB
        )
        if low_ub:
            high_ub = (
                high.termination is not None
                and high.termination.kind == TERM_UB
            )
            if not high_ub:
                return False
            return True
        return relation(low, high)

    return strengthened


class RefinementCounterexample(Record):
    low_state: ProgramState
    description: str
    #: The low-level transition sequence from the initial state to the
    #: unsimulatable step (inclusive), for diagnosis.
    trace: tuple = ()

    def format_trace(self) -> str:
        if not self.trace:
            return "(no trace)"
        return " ; ".join(t.describe() for t in self.trace)


class RefinementResult(Record):
    holds: bool
    product_states: int = 0
    counterexample: RefinementCounterexample | None = None
    #: The product-state budget ran out before the search finished.
    hit_budget: bool = False
    #: A stutter closure on the counterexample's path stopped at
    #: ``max_stutter`` with high-level states still unreached, so the
    #: missing match may be an artefact of the bound.
    hit_stutter_bound: bool = False
    #: The high level draws a value from a domain that does not cover
    #: its type, so a high-level state outside the domains may match.
    hit_domain_bound: bool = False

    @property
    def inconclusive(self) -> bool:
        """Neither verified nor refuted: a bound cut the search."""
        return (
            self.hit_budget or self.hit_stutter_bound
            or self.hit_domain_bound
        )

    def __bool__(self) -> bool:
        return self.holds


Successors = Callable[[ProgramState], list]


def _memoized(successors: Successors) -> Successors:
    """*successors* behind a table, so each state is expanded once.
    Successor states are interned: equal states are one object, so the
    closures' set lookups succeed on identity, without deep equality."""
    table: dict[ProgramState, list] = {}
    interned: dict[ProgramState, ProgramState] = {}
    intern = interned.setdefault

    def step(state: ProgramState) -> list:
        pairs = table.get(state)
        if pairs is None:
            pairs = table[state] = [
                (transition, intern(nxt, nxt))
                for transition, nxt in successors(state)
            ]
        return pairs

    return step


def _stutter_closure(
    step: Successors,
    states: frozenset[ProgramState],
    max_stutter: int,
) -> tuple[set[ProgramState], bool]:
    """All states reachable from *states* in at most *max_stutter*
    high-level steps (including zero), and whether the bound cut the
    search short: some state at the last depth still steps to a state
    outside the closure."""
    closure = set(states)
    frontier = list(states)
    for _ in range(max_stutter):
        new_frontier = []
        for state in frontier:
            if state.termination is not None:
                continue
            for _transition, nxt in step(state):
                if nxt not in closure:
                    closure.add(nxt)
                    new_frontier.append(nxt)
        if not new_frontier:
            return closure, False
        frontier = new_frontier
    cut = any(
        nxt not in closure
        for state in frontier if state.termination is None
        for _transition, nxt in step(state)
    )
    return closure, cut


def check_refinement(
    low: StateMachine,
    high: StateMachine,
    relation: RefinementRelation | None = None,
    max_stutter: int = 8,
    max_product_states: int = 1_000_000,
) -> RefinementResult:
    """Check that *low* refines *high* under *relation* (default: the
    log-prefix relation), with the UB conjunct added automatically.

    Both machines step through :func:`successors_for`.  Each
    high-level state is expanded at most once per call, and each
    product state's stutter closure is computed once, whatever its
    number of low-level transitions.  A missing match is a refutation
    only if no stutter closure on its path was cut by *max_stutter* and
    every value *high* draws ranges over its whole type; otherwise,
    like a product-budget cut, the result is inconclusive."""
    base = relation if relation is not None else log_prefix_relation
    R = with_ub_conjunct(base)
    low_step = successors_for(low)
    high_step = _memoized(successors_for(high))

    low_init = low.initial_state()
    high_init = high.initial_state()
    high_universe, cut = _stutter_closure(
        high_step, frozenset([high_init]), max_stutter
    )
    initial_set = frozenset(h for h in high_universe if R(low_init, h))
    if not initial_set:
        return _unmatched(
            high, low_init, "initial states are not related by R",
            "the low-level initial state", (), cut, max_stutter, 0,
        )

    # BFS over the product (low state, high-state set), with parent
    # pointers instead of per-entry trace tuples: the first path to any
    # product state is a shortest one, so counterexample traces are
    # minimal, and trace storage is O(states), not O(states * depth).
    init_key = (low_init, initial_set)
    parents: dict[tuple, tuple[tuple, object] | None] = {init_key: None}
    #: Product states whose parent path passed a cut closure: their
    #: high-level sets may lack states an unbounded search would keep.
    tainted: set[tuple] = {init_key} if cut else set()
    frontier: deque[tuple[ProgramState, frozenset]] = deque((init_key,))
    product_states = 0

    while frontier:
        key = frontier.popleft()
        low_state, high_set = key
        product_states += 1
        if low_state.termination is not None:
            continue
        low_pairs = low_step(low_state)
        if not low_pairs:
            continue
        closure, cut = _stutter_closure(high_step, high_set, max_stutter)
        cut = cut or key in tainted
        for transition, next_low in low_pairs:
            next_high = frozenset(
                h for h in closure if R(next_low, h)
            )
            if not next_high:
                target = f"low-level transition {transition.describe()}"
                return _unmatched(
                    high, next_low,
                    f"no high-level state simulates {target}",
                    target, _trace_to(parents, key) + (transition,),
                    cut, max_stutter, product_states,
                )
            next_key = (next_low, next_high)
            if next_key in parents:
                continue
            if len(parents) >= max_product_states:
                # Honest truncation: the budget is a hard bound on the
                # number of admitted product states, and hitting it
                # makes the check inconclusive, never refuted.
                return RefinementResult(
                    holds=False,
                    product_states=product_states,
                    hit_budget=True,
                    counterexample=RefinementCounterexample(
                        next_low,
                        "product state budget exhausted",
                        _trace_to(parents, key) + (transition,),
                    ),
                )
            parents[next_key] = (key, transition)
            if cut:
                tainted.add(next_key)
            frontier.append(next_key)
    return RefinementResult(holds=True, product_states=product_states)


def _unmatched(
    high: StateMachine,
    low_state: ProgramState,
    refutation: str,
    target: str,
    trace: tuple,
    cut: bool,
    max_stutter: int,
    product_states: int,
) -> RefinementResult:
    """The result when no high-level state matches *target*: the
    *refutation*, or inconclusive when a cut closure or a bounded
    domain of *high* may have hidden the match."""
    bound = None
    if cut:
        description = (
            f"stutter bound of {max_stutter} high-level steps cut the "
            f"search for a match to {target}"
        )
    else:
        bound = _domain_bound(high)
        description = refutation if bound is None else (
            f"no match to {target} among the bounded values: {bound}"
        )
    return RefinementResult(
        holds=False,
        product_states=product_states,
        hit_stutter_bound=cut,
        hit_domain_bound=bound is not None,
        counterexample=RefinementCounterexample(
            low_state, description, trace
        ),
    )


def _domain_bound(machine: StateMachine) -> str | None:
    """The first value *machine* draws from a domain that does not
    cover the value's type, described, or None when every draw
    covers its type: a ``bool`` draws both booleans, a fixed-width
    integer all its 2^bits values."""
    domains = machine.domains
    for pc, steps in machine.steps_by_pc.items():
        for step in steps:
            for var in machine.draws(step):
                values = domains.values(var)
                if not _covers(var.type, values):
                    return (
                        f"step {pc}:{type(step).__name__} of "
                        f"{machine.level_name} draws {var.type} from "
                        f"the domain {tuple(values)}"
                    )
    return None


def _covers(t: ty.Type, values: tuple) -> bool:
    if isinstance(t, ty.BoolType):
        return {False, True} <= set(values)
    if isinstance(t, ty.IntType):
        inside = {
            v for v in values
            if isinstance(v, int) and t.min_value <= v <= t.max_value
        }
        return len(inside) == 1 << t.bits
    return False
