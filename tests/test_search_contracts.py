"""The explorer's search contracts, checked on every case-study level
and litmus shape under sc, tso and ra.

:mod:`repro.explore.explorer` promises a plain breadth-first search:
it admits states in breadth-first discovery order, takes every enabled
transition of every admitted state, cuts a sweep at an exact prefix
when the state budget is full (and says so), and reports for every
state a shortest trace that replays to it.  Each test compares the
explorer, stepping through its default compiled stepper, with a
reference search written directly against the interpreter's
``enabled_transitions`` and ``next_state``.
"""

from dataclasses import dataclass

import pytest

from repro.errors import StateBudgetExceeded
from repro.explore import Explorer

from tests.differential_harness import Sweep, replay, sweep_rows

#: Memory models the contracts are checked under.
MODELS = ("sc", "tso", "ra")

#: State budget of every sweep here.  The three largest queue levels,
#: and the mcslock levels under ra, exceed it, so the contracts are
#: checked on budget-cut sweeps as well as complete ones.
BUDGET = 4_000

_PARAMS = [(row, model) for row in sweep_rows() for model in MODELS]


@dataclass
class Reference:
    """What a breadth-first search through the interpreter admits."""

    #: Admitted states, in discovery order.
    order: list
    #: Admitted state -> length of a shortest path to it.
    depth: dict
    #: Admitted state -> its enabled transitions, in order.
    enabled: dict
    #: Enabled transitions summed over the admitted states.
    transitions: int
    #: A successor was refused because *budget* states were admitted.
    truncated: bool


def reference_search(machine, budget):
    """Breadth-first search that steps *machine* through its
    interpreter only, admitting at most *budget* distinct states."""
    initial = machine.initial_state()
    order = [initial]
    depth = {initial: 0}
    enabled = {}
    transitions = 0
    truncated = False
    head = 0
    while head < len(order):
        state = order[head]
        head += 1
        enabled[state] = machine.enabled_transitions(state)
        transitions += len(enabled[state])
        for transition in enabled[state]:
            nxt = machine.next_state(state, transition)
            if nxt in depth:
                continue
            if len(order) >= budget:
                truncated = True
                continue
            depth[nxt] = depth[state] + 1
            order.append(nxt)
    return Reference(order, depth, enabled, transitions, truncated)


def first_mismatch(got, want):
    """The first index where two sequences of states differ (their
    common length when one is a prefix of the other), or None.  A
    failing check then names an index instead of rendering thousands
    of states."""
    for index, (a, b) in enumerate(zip(got, want)):
        if a != b:
            return index
    if len(got) != len(want):
        return min(len(got), len(want))
    return None


@pytest.fixture(scope="module")
def sweep():
    return Sweep()


@pytest.fixture(
    scope="class",
    params=_PARAMS,
    ids=[f"{row[0]}-{model}" for row, model in _PARAMS],
)
def level(request, sweep):
    """One (level, model) machine and its reference search.  Class
    scope runs every contract of a row before the next row's search,
    so one reference is held in memory at a time."""
    (_, spec), model = request.param
    machine = sweep.machine(spec, model)
    return machine, reference_search(machine, BUDGET)


class TestSearchContracts:
    def test_admits_the_reference_states_in_bfs_order(self, level):
        machine, ref = level
        admitted = []
        cut = False
        try:
            for state in Explorer(machine, BUDGET).reachable_states():
                admitted.append(state)
        except StateBudgetExceeded:
            cut = True
        assert first_mismatch(admitted, ref.order) is None
        assert cut == ref.truncated

    def test_takes_every_enabled_transition(self, level):
        machine, ref = level
        visited = {}
        complete = Explorer(machine, BUDGET).walk(
            lambda state, transitions: visited.update({state: transitions})
        )
        assert len(visited) == len(ref.enabled)
        assert first_mismatch(
            [visited.get(state) for state in ref.order],
            [ref.enabled[state] for state in ref.order],
        ) is None
        assert complete == (not ref.truncated)
        result = Explorer(machine, BUDGET).explore()
        assert result.states_visited == len(ref.order)
        assert result.transitions_taken == ref.transitions
        assert result.hit_state_budget == ref.truncated

    def test_traces_are_shortest_and_replay(self, level):
        machine, ref = level
        # An invariant that fails everywhere makes every admitted state
        # a violation, so each one reports its trace.
        result = Explorer(machine, BUDGET).explore(
            {"never": lambda state: False}
        )
        violations = result.violations
        assert first_mismatch([v.state for v in violations], ref.order) \
            is None
        by_trace = {v.trace: v.state for v in violations}
        assert by_trace[()] == machine.initial_state()
        for v in violations:
            assert len(v.trace) == ref.depth[v.state]
            if v.trace:
                # By induction from the initial state, every trace
                # replays: its prefix is the trace of the state it
                # steps from.
                parent = by_trace[v.trace[:-1]]
                assert machine.next_state(parent, v.trace[-1]) == v.state
        deepest = violations[-1]
        assert replay(machine, deepest.trace) == deepest.state

    def test_budget_cut_is_an_exact_prefix(self, level):
        machine, ref = level
        size = len(ref.order)
        cut = size // 2
        prefix = []
        with pytest.raises(StateBudgetExceeded):
            for state in Explorer(machine, cut).reachable_states():
                prefix.append(state)
        assert first_mismatch(prefix, ref.order[:cut]) is None
        result = Explorer(machine, cut).explore()
        assert result.states_visited == cut
        assert result.hit_state_budget
        assert Explorer(machine, cut).walk(lambda s, ts: True) is False
        if not ref.truncated:
            # *size* is the whole state space: a budget of exactly
            # that many states completes, one fewer does not.
            assert not Explorer(machine, size).explore().hit_state_budget
            assert Explorer(machine, size - 1).explore().hit_state_budget
