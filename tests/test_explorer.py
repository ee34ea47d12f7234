"""Tests for the explicit-state explorer and invariant checking."""

import pytest

from repro.errors import StateBudgetExceeded
from repro.explore.explorer import Explorer, final_logs
from repro.lang.frontend import check_level
from repro.machine.translator import translate_level

from tests.differential_harness import (
    Sweep,
    assert_entry_points_agree,
    replay,
)


def machine_for(source: str):
    return translate_level(check_level("level L { " + source + " }"))


@pytest.fixture(scope="module")
def sweep():
    return Sweep()


COUNTER = (
    "var x: uint32; var mu: uint64; "
    "void worker() { var t: uint32 := 0; lock(&mu); t := x; "
    "x := t + 1; unlock(&mu); } "
    "void main() { var a: uint64 := 0; var t: uint32 := 0; "
    "initialize_mutex(&mu); a := create_thread worker(); "
    "lock(&mu); t := x; x := t + 1; unlock(&mu); join a; "
    "t := x; print_uint32(t); }"
)


class TestExploration:
    def test_visits_all_states(self):
        machine = machine_for("void main() { print_uint32(1); }")
        result = Explorer(machine).explore()
        assert result.states_visited >= 2
        assert result.final_outcomes == {("normal", (1,))}

    def test_deduplicates_states(self):
        machine = machine_for(
            "void main() { var i: uint32 := 0; "
            "while i < 50 { i := i + 1; } }"
        )
        result = Explorer(machine).explore()
        # Linear in the loop bound, not exponential.
        assert result.states_visited < 200

    def test_counter_outcome_unique(self):
        machine = machine_for(COUNTER)
        result = Explorer(machine).explore()
        assert result.final_outcomes == {("normal", (2,))}
        assert not result.has_ub

    def test_state_budget_reported(self):
        machine = machine_for(COUNTER)
        result = Explorer(machine, max_states=10).explore()
        assert result.hit_state_budget

    def test_state_budget_is_exact_upper_bound(self):
        # max_states caps the number of *distinct* states admitted
        # (the initial state counts), so a clipped exploration visits
        # exactly the budget, never budget + fanout.
        machine = machine_for(COUNTER)
        for budget in (1, 2, 10, 25):
            result = Explorer(machine, max_states=budget).explore()
            assert result.hit_state_budget
            assert result.states_visited == budget

    def test_reachable_states_raises_on_truncation(self):
        machine = machine_for(COUNTER)
        states = []
        with pytest.raises(StateBudgetExceeded) as excinfo:
            for state in Explorer(machine, max_states=10) \
                    .reachable_states():
                states.append(state)
        # The budget's worth of states is yielded before the raise.
        assert len(states) == 10
        assert excinfo.value.max_states == 10

    @pytest.mark.parametrize(
        "study,level", [("queue", "QueueImpl"), ("mcslock", "MCSImpl")]
    )
    def test_reachable_states_complete_without_truncation(
        self, sweep, study, level
    ):
        # The three entry points consume one search, so they admit the
        # same states.
        machine = sweep.case_machine(study, level, "tso")
        explored = Explorer(machine).explore()
        assert not explored.hit_state_budget
        assert_entry_points_agree(machine, 2_000_000, explored)

    def test_walk_returns_false_on_truncation(self):
        machine = machine_for(COUNTER)
        assert Explorer(machine, max_states=10).walk(
            lambda state, transitions: True
        ) is False
        assert Explorer(machine).walk(
            lambda state, transitions: True
        ) is True

    def test_walk_early_stop_returns_false(self):
        machine = machine_for(COUNTER)
        assert Explorer(machine).walk(
            lambda state, transitions: False
        ) is False

    def test_ub_reasons_collected(self):
        machine = machine_for(
            "void main() { var a: uint32 := 1; var b: uint32 := 0; "
            "a := a / b; }"
        )
        result = Explorer(machine).explore()
        assert result.has_ub
        assert any("zero" in reason for reason in result.ub_reasons)

    def test_assert_failures_counted(self):
        machine = machine_for("void main() { assert false; }")
        result = Explorer(machine).explore()
        assert result.assert_failures == 1


class TestInvariants:
    def test_invariant_holds(self):
        machine = machine_for(COUNTER)

        def x_bounded(state):
            from repro.machine.values import Location, Root

            loc = Location(Root("global", "x"))
            return state.memory.get(loc, 0) <= 2

        result = Explorer(machine).explore({"x_bounded": x_bounded})
        assert not result.violations

    def test_invariant_violation_reported(self):
        machine = machine_for(COUNTER)

        def x_never_two(state):
            from repro.machine.values import Location, Root

            loc = Location(Root("global", "x"))
            return state.memory.get(loc, 0) < 2

        result = Explorer(machine).explore({"x_never_two": x_never_two})
        assert result.violations
        assert result.violations[0].invariant_name == "x_never_two"

    def test_crashing_invariant_counts_as_violation(self):
        machine = machine_for("void main() { }")

        def bad(state):
            raise RuntimeError("boom")

        result = Explorer(machine).explore({"bad": bad})
        assert result.violations


class TestTraces:
    def test_violation_trace_replays_to_state(self):
        machine = machine_for(COUNTER)

        def x_never_two(state):
            from repro.machine.values import Location, Root

            loc = Location(Root("global", "x"))
            return state.memory.get(loc, 0) < 2

        result = Explorer(machine).explore({"x_never_two": x_never_two})
        assert result.violations
        for violation in result.violations:
            assert violation.trace
            assert replay(machine, violation.trace) == violation.state

    def test_violation_traces_are_bfs_shortest(self):
        # BFS visits states in non-decreasing depth, so the reported
        # traces are shortest paths and appear in depth order.
        machine = machine_for(COUNTER)

        def x_never_two(state):
            from repro.machine.values import Location, Root

            loc = Location(Root("global", "x"))
            return state.memory.get(loc, 0) < 2

        result = Explorer(machine).explore({"x_never_two": x_never_two})
        lengths = [len(v.trace) for v in result.violations]
        assert lengths == sorted(lengths)

    def test_initial_state_violation_has_empty_trace(self):
        machine = machine_for("void main() { }")
        result = Explorer(machine).explore(
            {"never": lambda state: False}
        )
        assert result.violations
        first = result.violations[0]
        assert first.trace == ()
        assert first.format_trace() == "<initial>"

    def test_ub_traces_replay_to_ub(self):
        from repro.machine.state import TERM_UB

        machine = machine_for(
            "void main() { var a: uint32 := 1; var b: uint32 := 0; "
            "a := a / b; }"
        )
        result = Explorer(machine).explore()
        assert result.ub_traces
        assert len(result.ub_traces) == len(result.ub_reasons)
        for trace in result.ub_traces:
            final = replay(machine, trace)
            assert final.termination is not None
            assert final.termination.kind == TERM_UB


class TestFinalLogs:
    def test_nondet_produces_multiple_outcomes(self):
        machine = machine_for(
            "void main() { if (*) { print_uint32(1); } else "
            "{ print_uint32(2); } }"
        )
        assert {log for _, log in final_logs(machine)} == {(1,), (2,)}

    def test_deadlock_reported(self):
        machine = machine_for("void main() { assume false; }")
        assert {kind for kind, _ in final_logs(machine)} == {"deadlock"}

    def test_truncated_sweep_raises(self):
        # A budget-cut sweep must not pass off its partial outcome set
        # as every outcome.
        machine = machine_for(COUNTER)
        with pytest.raises(StateBudgetExceeded):
            final_logs(machine, max_states=10)
