"""Differential sweep of the full reduction stack.

The explorer offers three ways to shrink the state sweep: static
ample-set POR (:mod:`repro.explore.por`), dynamic POR with sleep sets
(:mod:`repro.explore.dpor`), and the regular-to-atomic lift
(:mod:`repro.explore.atomic`).  All of them must be *observationally
invisible*: on every case-study level and every litmus shape, under
every memory model that admits them, the final outcomes, UB reasons,
assertion-failure presence, invariant-violation existence and budget
status are bit-identical to the full fan-out, and every counterexample
trace a reduced run reports must replay on a fresh unreduced machine
to the claimed outcome.

The mode dispatcher, verdict projection, replay check and the memo of
full-fan-out baselines live in :mod:`tests.differential_harness`,
shared with the Hypothesis fuzz sweep.
"""

import pytest

from repro.casestudies import load
from repro.cli import _invariant_predicate
from repro.explore import Explorer
from repro.lang.frontend import check_level, check_program
from repro.machine.state import TERM_UB
from repro.machine.translator import translate_level

from tests.differential_harness import (
    REDUCED_MODES,
    Sweep,
    assert_entry_points_agree,
    assert_traces_replay,
    case_rows,
    explore_mode,
    replay,
    verdict,
)
from tests.test_por import LITMUS, STUDY_BUDGETS

#: Memory models litmus shapes run under.  Case-study levels sweep
#: sc + tso; release/acquire is covered by TestRaFallback (under RA
#: every reduction degrades to the identical unreduced exploration,
#: so sweeping all modes there would compare a run against itself).
LITMUS_MODELS = ("sc", "tso")
CASE_MODELS = ("sc", "tso")

_CASE_ROWS = case_rows()


@pytest.fixture(scope="module")
def sweep():
    return Sweep()


class TestCaseStudyLevels:
    @pytest.mark.parametrize("model", CASE_MODELS)
    @pytest.mark.parametrize("mode", REDUCED_MODES)
    @pytest.mark.parametrize(
        "row", _CASE_ROWS, ids=[r[0] for r in _CASE_ROWS]
    )
    def test_mode_preserves_verdict(self, sweep, row, mode, model):
        _, study, level = row
        full = sweep.full_case(study, level, model)
        machine = sweep.case_machine(study, level, model)
        result = explore_mode(machine, STUDY_BUDGETS[study], mode)
        assert verdict(result) == verdict(full), (row[0], mode, model)
        assert result.states_visited <= full.states_visited
        assert_traces_replay(machine, result)


class TestLitmusShapes:
    @pytest.mark.parametrize("model", LITMUS_MODELS)
    @pytest.mark.parametrize("mode", REDUCED_MODES)
    @pytest.mark.parametrize("name", sorted(LITMUS))
    def test_mode_preserves_verdict(self, sweep, name, mode, model):
        full = sweep.full_litmus(name, model)
        machine = sweep.litmus_machine(name, model)
        result = explore_mode(machine, 2_000_000, mode)
        assert verdict(result) == verdict(full), (name, mode, model)
        assert_traces_replay(machine, result)


# ---------------------------------------------------------------------------
# explore, reachable_states and walk are consumers of one search.

#: State budget of the entry-point sweep over case-study levels.  About
#: a quarter of the level/mode/model rows (the larger queue levels, and
#: the mcslock levels under TSO) exceed it, so the sweep covers
#: budget-cut searches as well as complete ones.
AGREE_BUDGET = 2_000


class TestEntryPointsAgree:
    """Every entry point of the explorer runs the same breadth-first
    kernel, so under every mode they admit the same states, and a
    budget cut shows in all three at once."""

    @pytest.mark.parametrize("model", CASE_MODELS)
    @pytest.mark.parametrize("mode", ("full",) + REDUCED_MODES)
    @pytest.mark.parametrize(
        "row", _CASE_ROWS, ids=[r[0] for r in _CASE_ROWS]
    )
    def test_case_study_level(self, sweep, row, mode, model):
        _, study, level = row
        machine = sweep.case_machine(study, level, model)
        assert_entry_points_agree(machine, AGREE_BUDGET, mode)

    @pytest.mark.parametrize("model", LITMUS_MODELS)
    @pytest.mark.parametrize("mode", ("full",) + REDUCED_MODES)
    @pytest.mark.parametrize("name", sorted(LITMUS))
    def test_litmus_shape(self, sweep, name, mode, model):
        machine = sweep.litmus_machine(name, model)
        assert_entry_points_agree(machine, 2_000_000, mode)


# ---------------------------------------------------------------------------
# Invariant violations and UB counterexamples must survive every mode.

#: A racy unprotected counter: the invariant "g stays 0 or k" is
#: violated along some interleavings, and every mode must find it.
_RACY_COUNTER = (
    "var g: uint32 := 0; "
    "void w() { var t: uint32 := 0; t := g; g := t + 1; } "
    "void main() { var a: uint64 := 0; var b: uint64 := 0; "
    "a := create_thread w(); b := create_thread w(); "
    "join a; join b; fence(); } "
)

#: Racing division: one thread zeroes the divisor another reads —
#: some schedules divide by zero (UB), others don't.
_RACY_DIV = (
    "var d: uint32 := 1; var out: uint32 := 0; "
    "void z() { d := 0; } "
    "void main() { var a: uint64 := 0; var t: uint32 := 0; "
    "a := create_thread z(); t := d; out := 10 / t; "
    "join a; fence(); } "
)


class TestCounterexamplesSurvive:
    @pytest.mark.parametrize("mode", ("full",) + REDUCED_MODES)
    def test_invariant_violation_found_everywhere(self, mode):
        ctx = check_level("level L { " + _RACY_COUNTER + " }")
        machine = translate_level(ctx)
        predicate = _invariant_predicate(ctx, machine, "g < 2")
        result = explore_mode(
            machine, 200_000, mode, invariants={"g<2": predicate}
        )
        assert result.violations, mode
        # The trace replays on an unreduced machine to a state that
        # refutes the invariant.
        violation = result.violations[0]
        fresh = translate_level(ctx)
        final = replay(fresh, violation.trace)
        assert not predicate(final), mode

    @pytest.mark.parametrize("mode", ("full",) + REDUCED_MODES)
    def test_ub_trace_replays_everywhere(self, mode):
        ctx = check_level("level L { " + _RACY_DIV + " }")
        machine = translate_level(ctx)
        result = explore_mode(machine, 200_000, mode)
        assert result.has_ub, mode
        assert result.ub_traces, mode
        for reason, trace in zip(result.ub_reasons, result.ub_traces):
            fresh = translate_level(ctx)
            final = replay(fresh, trace)
            assert final.termination is not None
            assert final.termination.kind == TERM_UB
            assert final.termination.detail == reason


# ---------------------------------------------------------------------------
# Release/acquire: every reduction flag must cleanly no-op.

class TestRaFallback:
    """Under C11 release/acquire the independence arguments do not
    cover the model's view-advance environment moves, so the explorer
    must drop every reduction flag, say so, and produce the identical
    unreduced exploration."""

    @pytest.mark.parametrize(
        "flags",
        [
            {"por": True},
            {"dpor": True},
            {"atomic": True},
            {"atomic": True, "dpor": True},
        ],
        ids=["por", "dpor", "atomic", "atomic+dpor"],
    )
    @pytest.mark.parametrize("name", ("SB", "MP"))
    def test_flags_noop_cleanly(self, name, flags):
        ctx = check_level("level L { " + LITMUS[name] + " }")
        baseline = Explorer(
            translate_level(ctx, memory_model="ra"), 2_000_000
        ).explore()
        explorer = Explorer(
            translate_level(ctx, memory_model="ra"), 2_000_000, **flags
        )
        assert explorer.reductions_disabled is not None
        assert "ra" in explorer.reductions_disabled
        assert explorer.reducer is None
        assert explorer.atomic is None
        result = explorer.explore()
        assert result.states_visited == baseline.states_visited
        assert result.transitions_taken == baseline.transitions_taken
        assert verdict(result) == verdict(baseline)
        assert result.por_stats is None
        assert result.atomic_stats is None

    def test_case_study_level_noops_under_ra(self):
        study = load("queue")
        checked = check_program(study.source, "<queue>")
        ctx = checked.contexts["QueueImpl"]
        baseline = Explorer(
            translate_level(ctx, memory_model="ra"), 400_000
        ).explore()
        explorer = Explorer(
            translate_level(ctx, memory_model="ra"), 400_000,
            dpor=True, atomic=True,
        )
        assert explorer.reductions_disabled is not None
        result = explorer.explore()
        assert verdict(result) == verdict(baseline)
        assert result.states_visited == baseline.states_visited


# ---------------------------------------------------------------------------
# The reductions must actually pay, not merely not lose.

class TestDynamicPayoff:
    def test_dpor_beats_static_on_queue(self, sweep):
        """Acceptance floor: on QueueImpl under TSO the static rule is
        nearly blind (buffered stores alias in its pc-level facts)
        while the dynamic rule prunes ≥30% of states."""
        full = sweep.full_case("queue", "QueueImpl", "tso")
        machine = sweep.case_machine("queue", "QueueImpl", "tso")
        static = explore_mode(machine, STUDY_BUDGETS["queue"], "por")
        dynamic = explore_mode(machine, STUDY_BUDGETS["queue"], "dpor")
        static_saved = 1 - static.states_visited / full.states_visited
        dynamic_saved = 1 - dynamic.states_visited / full.states_visited
        assert static_saved <= 0.20
        assert dynamic_saved >= 0.30

    @pytest.mark.parametrize("model", CASE_MODELS)
    @pytest.mark.parametrize("study,level", [
        ("queue", "QueueImpl"), ("mcslock", "MCSImpl"),
    ])
    def test_atomic_prunes_queue_and_mcslock(
        self, sweep, study, level, model
    ):
        """Acceptance floor for the regular-to-atomic lift: on the
        queue and mcslock implementation levels it must hide ≥25% of
        states (the measured cut is ~40-45%)."""
        full = sweep.full_case(study, level, model)
        machine = sweep.case_machine(study, level, model)
        result = explore_mode(machine, STUDY_BUDGETS[study], "atomic")
        saved = 1 - result.states_visited / full.states_visited
        assert saved >= 0.25, (study, level, model, saved)
        assert result.atomic_stats is not None
        assert result.atomic_stats.chains > 0
