"""Shared harness for differential exploration sweeps.

Every reduction the explorer offers — static ample-set POR, dynamic
POR + sleep sets, and the regular-to-atomic lift — must be
*observationally invisible*.  This module holds the machinery the
differential suites (:mod:`tests.test_reduction_differential`,
:mod:`tests.test_fuzz_differential`) share: the mode dispatcher, the
verdict projection each mode must preserve bit-for-bit, the
trace-replay check, the check that the explorer's three entry points
admit the same states, and a memo of checked programs / machines / full
fan-out baselines so each (program, model) baseline is explored once
per module, not once per comparison.
"""

from repro.casestudies import ALL, load
from repro.errors import StateBudgetExceeded
from repro.explore import Explorer
from repro.lang.frontend import check_level, check_program
from repro.machine.state import TERM_UB
from repro.machine.translator import translate_level

from tests.test_por import LITMUS, STUDY_BUDGETS

#: The reduced modes, each compared against "full".
REDUCED_MODES = ("por", "dpor", "atomic", "atomic+dpor")

#: Explorer keyword arguments per mode.
MODE_KWARGS = {
    "full": {},
    "por": {"por": True},
    "dpor": {"dpor": True},
    "atomic": {"atomic": True},
    "atomic+dpor": {"atomic": True, "dpor": True},
}


def case_rows():
    """Every level of every case study, as (id, study, level) rows."""
    rows = []
    for name in sorted(ALL):
        study = load(name)
        checked = check_program(study.source, f"<{name}>")
        for level in checked.program.levels:
            rows.append((f"{name}/{level.name}", name, level.name))
    return rows


def explore_mode(machine, budget, mode, invariants=None):
    """Explore *machine* under one named mode of the sweep."""
    return Explorer(
        machine, budget, **MODE_KWARGS[mode]
    ).explore(invariants)


def verdict(result):
    """Everything a reduction must preserve exactly.  UB reasons
    compare as a set: a reduction may reach the same UB through fewer
    distinct states, but never report a reason the full sweep lacks
    (or miss one it has)."""
    return (
        frozenset(result.final_outcomes),
        frozenset(result.ub_reasons),
        bool(result.assert_failures),
        sorted({v.invariant_name for v in result.violations}),
        result.hit_state_budget,
    )


def replay(machine, trace):
    """Drive *trace* through ``machine.next_state`` from the initial
    state and return the state it lands on."""
    state = machine.initial_state()
    for transition in trace:
        state = machine.next_state(state, transition)
    return state


def assert_traces_replay(machine, result):
    """Every counterexample trace must replay on a fresh unreduced
    machine to the outcome it claims.  Macro transitions recorded by
    the atomic lift are flattened into micro steps before they reach a
    trace, so the same replay covers every mode."""
    for reason, trace in zip(result.ub_reasons, result.ub_traces):
        final = replay(machine, trace)
        assert final.termination is not None
        assert final.termination.kind == TERM_UB
        assert final.termination.detail == reason
    for violation in result.violations:
        # Invariant predicates are re-checked by the caller (they need
        # the predicate, not just the trace); here we only require the
        # trace to be structurally replayable.
        replay(machine, violation.trace)


def assert_entry_points_agree(machine, budget, mode, explored=None):
    """``reachable_states``, ``walk`` and ``explore`` consume one
    search, so under every mode they must admit the same states, each
    exactly once, and agree on whether the budget cut the sweep short.
    *explored* is an ``explore`` result of the same configuration to
    reuse; one is computed when omitted."""
    kwargs = MODE_KWARGS[mode]
    reached = []
    cut = False
    try:
        for state in Explorer(machine, budget, **kwargs).reachable_states():
            reached.append(state)
    except StateBudgetExceeded:
        cut = True
    walked = []
    complete = Explorer(machine, budget, **kwargs).walk(
        lambda state, transitions: walked.append(state) is None
    )
    if explored is None:
        explored = explore_mode(machine, budget, mode)
    assert len(set(reached)) == len(reached)
    assert len(walked) == len(reached)
    assert set(walked) == set(reached)
    assert len(reached) == explored.states_visited
    assert cut == (not complete) == explored.hit_state_budget


class Sweep:
    """Shared memo of checked programs, machines, and full baselines."""

    def __init__(self):
        self._checked = {}
        self._machines = {}
        self._full = {}

    def checked(self, study):
        if study not in self._checked:
            source = load(study).source
            self._checked[study] = check_program(source, f"<{study}>")
        return self._checked[study]

    def case_machine(self, study, level, model):
        key = (study, level, model)
        if key not in self._machines:
            ctx = self.checked(study).contexts[level]
            self._machines[key] = translate_level(ctx, memory_model=model)
        return self._machines[key]

    def litmus_machine(self, name, model):
        key = ("litmus", name, model)
        if key not in self._machines:
            ctx = check_level("level L { " + LITMUS[name] + " }")
            self._machines[key] = translate_level(ctx, memory_model=model)
        return self._machines[key]

    def full_case(self, study, level, model):
        key = (study, level, model)
        if key not in self._full:
            machine = self.case_machine(study, level, model)
            self._full[key] = explore_mode(
                machine, STUDY_BUDGETS[study], "full"
            )
        return self._full[key]

    def full_litmus(self, name, model):
        key = ("litmus", name, model)
        if key not in self._full:
            machine = self.litmus_machine(name, model)
            self._full[key] = explore_mode(machine, 2_000_000, "full")
        return self._full[key]
