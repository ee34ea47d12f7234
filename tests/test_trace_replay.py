"""Counterexample traces must replay, step by step, to the state they
accuse.

Every diagnostic the explorer or the refinement checker emits carries a
transition sequence; these tests drive that sequence back through
``machine.next_state`` from the initial state and require it to land
exactly on the recorded violating state.  A trace that does not replay
is worse than no trace — it sends the user debugging a path that does
not exist — so the property is checked across the three counterexample
kinds (invariant violations, UB outcomes, refinement counterexamples)
and across program shapes: toy levels, the TSO litmus patterns, and the
paper's case-study implementation levels.
"""

import pytest

from repro.casestudies import load
from repro.explore.explorer import Explorer
from repro.explore.refinement_check import check_refinement
from repro.lang.frontend import check_level, check_program
from repro.machine.state import TERM_UB
from repro.machine.translator import translate_level

from tests.differential_harness import replay


def machine_for(source: str):
    return translate_level(check_level("level L { " + source + " }"))


def _print_regs(*names: str) -> str:
    parts = []
    for i, name in enumerate(names):
        parts.append(f"var s{i}: uint32 := 0; s{i} := {name}; "
                     f"print_uint32(s{i});")
    return " ".join(parts)


LITMUS = {
    "SB": (
        "var x: uint32; var y: uint32; var r1: uint32; var r2: uint32; "
        "void t1() { x := 1; r1 := y; fence(); } "
        "void main() { var a: uint64 := 0; a := create_thread t1(); "
        "y := 1; r2 := x; join a; fence(); "
        + _print_regs("r1", "r2") + " }"
    ),
    "MP": (
        "var data: uint32; var flag: uint32; "
        "var rf: uint32; var rd: uint32; "
        "void t1() { data := 1; flag := 1; } "
        "void main() { var a: uint64 := 0; a := create_thread t1(); "
        "rf := flag; rd := data; join a; fence(); "
        + _print_regs("rf", "rd") + " }"
    ),
}


class TestInvariantViolationReplay:
    @pytest.mark.parametrize("shape", sorted(LITMUS))
    def test_litmus_violations_replay(self, shape):
        machine = machine_for(LITMUS[shape])
        # "The log stays empty" is falsified on every completed run, so
        # each litmus shape yields violations with non-trivial traces.
        result = Explorer(machine).explore(
            invariants={"log-empty": lambda s: len(s.log) == 0}
        )
        assert result.violations
        for violation in result.violations:
            assert len(violation.state.log) > 0
            assert replay(machine, violation.trace) == violation.state

    @pytest.mark.parametrize("study_name", ["tsp", "barrier"])
    def test_case_study_violations_replay(self, study_name):
        study = load(study_name)
        checked = check_program(study.source, f"<{study.name}>")
        level = checked.program.levels[0].name
        machine = translate_level(checked.contexts[level])
        # Falsified as soon as the implementation spawns its first
        # worker; a small budget keeps the sweep fast — violations found
        # before truncation still carry complete traces.
        explorer = Explorer(machine, max_states=2_000)
        result = explorer.explore(
            invariants={"single-threaded": lambda s: s.next_tid <= 1}
        )
        assert result.violations
        for violation in result.violations[:10]:
            replayed = replay(machine, violation.trace)
            assert replayed == violation.state
            assert replayed.next_tid > 1

    def test_shortest_violation_breaks_at_its_last_step(self):
        machine = machine_for(
            "void main() { print_uint32(1); print_uint32(2); }"
        )
        result = Explorer(machine).explore(
            invariants={"log-empty": lambda s: len(s.log) == 0}
        )
        assert result.violations
        # BFS traces are shortest, so along the shortest violation's
        # path the invariant holds at every proper prefix and breaks
        # exactly at the final state.
        shortest = min(result.violations, key=lambda v: len(v.trace))
        state = machine.initial_state()
        for transition in shortest.trace[:-1]:
            assert len(state.log) == 0
            state = machine.next_state(state, transition)
        state = machine.next_state(state, shortest.trace[-1])
        assert state == shortest.state
        assert len(state.log) > 0


class TestUBReplay:
    def test_concurrent_div_by_zero_replays(self):
        machine = machine_for(
            "var d: uint32; var r: uint32; "
            "void t1() { d := 1; } "
            "void main() { var a: uint64 := 0; "
            "a := create_thread t1(); r := 5 / d; join a; }"
        )
        result = Explorer(machine).explore()
        assert result.has_ub  # the race where t1 has not stored yet
        assert len(result.ub_traces) == len(result.ub_reasons)
        for reason, trace in zip(result.ub_reasons, result.ub_traces):
            final = replay(machine, trace)
            assert final.termination is not None
            assert final.termination.kind == TERM_UB
            assert final.termination.detail == reason

    @pytest.mark.parametrize("study_name", ["tsp"])
    def test_case_study_stays_ub_free(self, study_name):
        # The case studies are UB-free; the replay property is vacuous
        # there, and this pins that it stays vacuous.
        study = load(study_name)
        checked = check_program(study.source, f"<{study.name}>")
        level = checked.program.levels[0].name
        machine = translate_level(checked.contexts[level])
        result = Explorer(machine, max_states=200_000).explore()
        assert not result.has_ub


class TestRefinementCounterexampleReplay:
    def test_unsimulatable_step_replays(self):
        low = machine_for("void main() { print_uint32(2); }")
        high = machine_for("void main() { print_uint32(1); }")
        result = check_refinement(low, high)
        assert not result.holds
        cex = result.counterexample
        assert cex is not None and cex.trace
        # The trace includes the unsimulatable transition itself, so it
        # replays exactly onto the recorded stuck low-level state.
        assert replay(low, cex.trace) == cex.low_state

    def test_weak_memory_counterexample_replays(self):
        # Low exhibits the SB weak outcome; a sequentially-consistent
        # high level cannot simulate it, and the reported trace must
        # replay through the store-buffer steps that produced it.
        low = machine_for(LITMUS["SB"])
        high = machine_for(
            "void main() { " + _print_regs("1", "1") + " }"
        )
        result = check_refinement(low, high)
        assert not result.holds
        cex = result.counterexample
        assert cex is not None and cex.trace
        assert replay(low, cex.trace) == cex.low_state
