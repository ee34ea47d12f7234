"""Differential sweep of the explorer's entry points and counterexamples.

The explorer runs one unreduced breadth-first search behind its three
entry points.  On every case-study level and every litmus shape, under
sc, tso and ra, ``explore``, ``reachable_states`` and ``walk`` must admit
the same states and agree on whether the state budget cut the sweep
short.  Invariant violations and UB outcomes must be found, and every
counterexample trace must replay on a fresh machine to the claimed
outcome.

The corpus, the entry-point check and the memo of machines live in
:mod:`tests.differential_harness`, shared with the Hypothesis fuzz
sweep.
"""

import pytest

from repro.cli import _invariant_predicate
from repro.explore import Explorer
from repro.lang.frontend import check_level
from repro.machine.state import TERM_UB
from repro.machine.translator import translate_level

from tests.differential_harness import (
    LITMUS,
    Sweep,
    assert_entry_points_agree,
    case_rows,
    replay,
)

#: Memory models the sweeps run under.
MODELS = ("sc", "tso", "ra")

_CASE_ROWS = case_rows()


@pytest.fixture(scope="module")
def sweep():
    return Sweep()


# ---------------------------------------------------------------------------
# explore, reachable_states and walk are consumers of one search.

#: State budget of the entry-point sweep over case-study levels.  The
#: larger queue levels, and the mcslock levels under TSO and RA, exceed
#: it, so the sweep covers budget-cut searches as well as complete ones.
AGREE_BUDGET = 2_000


class TestEntryPointsAgree:
    """Every entry point of the explorer runs the same breadth-first
    kernel, so they admit the same states, and a budget cut shows in
    all three at once."""

    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize(
        "row", _CASE_ROWS, ids=[r[0] for r in _CASE_ROWS]
    )
    def test_case_study_level(self, sweep, row, model):
        _, study, level = row
        machine = sweep.case_machine(study, level, model)
        assert_entry_points_agree(machine, AGREE_BUDGET)

    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("name", sorted(LITMUS))
    def test_litmus_shape(self, sweep, name, model):
        machine = sweep.litmus_machine(name, model)
        assert_entry_points_agree(machine, 2_000_000)


# ---------------------------------------------------------------------------
# Invariant violations and UB counterexamples are found and replay.

#: A racy unprotected counter: the invariant "g stays 0 or k" is
#: violated along some interleavings.
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
    def test_invariant_violation_found(self):
        ctx = check_level("level L { " + _RACY_COUNTER + " }")
        machine = translate_level(ctx)
        predicate = _invariant_predicate(ctx, machine, "g < 2")
        result = Explorer(machine, 200_000).explore({"g<2": predicate})
        assert result.violations
        # The trace replays on a fresh machine to a state that refutes
        # the invariant.
        violation = result.violations[0]
        fresh = translate_level(ctx)
        final = replay(fresh, violation.trace)
        assert not predicate(final)

    def test_ub_trace_replays(self):
        ctx = check_level("level L { " + _RACY_DIV + " }")
        machine = translate_level(ctx)
        result = Explorer(machine, 200_000).explore()
        assert result.has_ub
        assert result.ub_traces
        for reason, trace in zip(result.ub_reasons, result.ub_traces):
            fresh = translate_level(ctx)
            final = replay(fresh, trace)
            assert final.termination is not None
            assert final.termination.kind == TERM_UB
            assert final.termination.detail == reason
