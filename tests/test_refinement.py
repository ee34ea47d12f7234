"""Tests for the refinement (simulation) checker (§3.1.3)."""

from pathlib import Path

import pytest

from repro.casestudies import load as load_case_study
from repro.compiler.stepc import stepper_for
from repro.explore.refinement_check import (
    check_refinement,
    log_equal_relation,
    log_prefix_relation,
    with_ub_conjunct,
)
from repro.lang.frontend import check_level, check_program
from repro.machine.state import ProgramState, Termination
from repro.machine.pmap import PMap
from repro.machine.translator import translate_level
from repro.proofs.engine import ProofEngine
from repro.proofs.refinement import build_relation, relation_from_recipe

from tests.differential_harness import interpreted_stepping


def machines(source: str, low: str, high: str):
    checked = check_program(source)
    return (
        translate_level(checked.contexts[low]),
        translate_level(checked.contexts[high]),
    )


def check_both_ways(low, high, **options):
    """``check_refinement`` stepping through the compiled steppers,
    then through the interpreter (the whole-machine fallback forced)."""
    compiled = check_refinement(low, high, **options)
    with interpreted_stepping():
        interpreted = check_refinement(low, high, **options)
    return compiled, interpreted


def _state(log=(), termination=None):
    return ProgramState(
        threads=PMap(), memory=PMap(), allocation=PMap(), ghosts=PMap(),
        log=log, termination=termination,
    )


class TestRelations:
    def test_log_prefix_running(self):
        assert log_prefix_relation(_state(log=(1,)), _state(log=(1, 2)))
        assert not log_prefix_relation(_state(log=(2,)), _state(log=(1,)))

    def test_log_prefix_at_normal_termination_requires_equality(self):
        done = Termination("normal")
        assert not log_prefix_relation(
            _state(log=(1,), termination=done), _state(log=(1, 2))
        )
        assert log_prefix_relation(
            _state(log=(1, 2), termination=done),
            _state(log=(1, 2), termination=done),
        )

    def test_ub_conjunct(self):
        relation = with_ub_conjunct(log_equal_relation)
        ub = Termination("undefined_behavior")
        # Low UB requires high UB (§3.2.3).
        assert not relation(_state(termination=ub), _state())
        assert relation(_state(termination=ub), _state(termination=ub))


class TestRefinementCheck:
    def test_identical_programs_refine(self):
        low, high = machines(
            "level A { void main() { print_uint32(7); } } "
            "level B { void main() { print_uint32(7); } }",
            "A", "B",
        )
        assert check_refinement(low, high).holds

    def test_different_output_fails(self):
        low, high = machines(
            "level A { void main() { print_uint32(7); } } "
            "level B { void main() { print_uint32(8); } }",
            "A", "B",
        )
        result = check_refinement(low, high)
        assert not result.holds
        assert result.counterexample is not None

    def test_stuttering_absorbs_extra_high_steps(self):
        low, high = machines(
            "level A { void main() { print_uint32(7); } } "
            "level B { var x: uint32; void main() "
            "{ x := 1; x := 2; print_uint32(7); } }",
            "A", "B",
        )
        assert check_refinement(low, high).holds

    def test_high_nondeterminism_absorbs_low(self):
        low, high = machines(
            "level A { void main() { print_uint32(1); } } "
            "level B { void main() { if (*) { print_uint32(1); } "
            "else { print_uint32(2); } } }",
            "A", "B",
        )
        assert check_refinement(low, high).holds

    def test_low_nondeterminism_needs_high_cover(self):
        low, high = machines(
            "level A { void main() { if (*) { print_uint32(1); } "
            "else { print_uint32(2); } } } "
            "level B { void main() { print_uint32(1); } }",
            "A", "B",
        )
        assert not check_refinement(low, high).holds

    def test_low_ub_fails_against_safe_high(self):
        low, high = machines(
            "level A { void main() { var a: uint32 := 1; "
            "var b: uint32 := 0; a := a / b; } } "
            "level B { void main() { } }",
            "A", "B",
        )
        assert not check_refinement(low, high).holds

    def test_product_budget(self):
        low, high = machines(
            "level A { void main() { var i: uint32 := 0; "
            "while i < 40 { i := i + 1; } } } "
            "level B { void main() { var i: uint32 := 0; "
            "while i < 40 { i := i + 1; } } }",
            "A", "B",
        )
        result = check_refinement(low, high, max_product_states=5)
        assert result.hit_budget and not result.holds

    def test_custom_relation(self):
        low, high = machines(
            "level A { void main() { print_uint32(7); } } "
            "level B { void main() { print_uint32(7); } }",
            "A", "B",
        )
        result = check_refinement(
            low, high, relation=lambda l, h: True
        )
        assert result.holds


class TestCounterexampleTraces:
    def test_trace_leads_to_failure(self):
        low, high = machines(
            "level A { var x: uint32; void main() "
            "{ x := 1; print_uint32(7); } } "
            "level B { var x: uint32; void main() "
            "{ x := 1; print_uint32(8); } }",
            "A", "B",
        )
        result = check_refinement(low, high)
        assert not result.holds
        cex = result.counterexample
        assert cex.trace, "counterexample must carry a trace"
        # The trace replays deterministically to the failing state.
        state = low.initial_state()
        for transition in cex.trace:
            state = low.next_state(state, transition)
        assert state == cex.low_state
        assert "t1:" in cex.format_trace()

    def test_no_trace_when_holds(self):
        low, high = machines(
            "level A { void main() { print_uint32(7); } } "
            "level B { void main() { print_uint32(7); } }",
            "A", "B",
        )
        assert check_refinement(low, high).counterexample is None


def _pinned_to_start(high):
    """Logs agree, and a high-level state with an empty log matches only
    the initial one: every silent high step must be taken as stutter
    within a single low step."""
    initial = high.initial_state()
    return lambda l, h: l.log == h.log and (bool(h.log) or h == initial)


def _silent_then_print(silent_steps: int):
    """A low level that prints once, and a high level that takes
    *silent_steps* assignments before the same print."""
    silent = " ".join(f"x := {k};" for k in range(1, silent_steps + 1))
    return machines(
        "level A { var x: uint32; void main() { print_uint32(7); } } "
        f"level B {{ var x: uint32; void main() {{ {silent} "
        "print_uint32(7); } }",
        "A", "B",
    )


class TestStutterBound:
    def test_eight_high_steps_per_low_step_hold(self):
        # Seven silent steps plus the print: exactly max_stutter = 8.
        low, high = _silent_then_print(7)
        for result in check_both_ways(
            low, high, relation=_pinned_to_start(high)
        ):
            assert result.holds and not result.inconclusive

    def test_nine_high_steps_per_low_step_are_inconclusive(self):
        low, high = _silent_then_print(8)
        for result in check_both_ways(
            low, high, relation=_pinned_to_start(high)
        ):
            assert not result.holds
            assert result.hit_stutter_bound and result.inconclusive
            assert not result.hit_budget
            description = result.counterexample.description
            assert "stutter bound of 8" in description
            assert "no high-level state simulates" not in description
        # A larger bound finds the match the cut closure missed.
        assert check_refinement(
            low, high, relation=_pinned_to_start(high), max_stutter=9
        ).holds

    def test_cut_earlier_on_the_path_is_inconclusive(self):
        # The first low print is matched by the short branch, while the
        # long branch (branch + 7 assignments + print = 9 steps) is cut.
        # The second print then has no match on the short branch: a
        # missing match that only the cut branch could have supplied.
        silent = " ".join(f"x := {k};" for k in range(1, 8))
        low, high = machines(
            "level A { var x: uint32; void main() "
            "{ print_uint32(7); print_uint32(8); } } "
            "level B { var x: uint32; void main() { if (*) "
            "{ print_uint32(7); print_uint32(9); } "
            f"else {{ {silent} print_uint32(7); print_uint32(8); }} }} }}",
            "A", "B",
        )
        relation = _pinned_to_start(high)
        result = check_refinement(low, high, relation=relation)
        assert not result.holds and result.hit_stutter_bound
        assert check_refinement(
            low, high, relation=relation, max_stutter=9
        ).holds


class TestDomainBound:
    """A missing match refutes only when every value the high level
    draws ranges over its whole type; a draw from a smaller domain may
    have hidden the match, so the result is inconclusive."""

    def test_bool_draws_still_refute(self):
        low, high = machines(
            "level A { void main() { print_uint32(3); } } "
            "level B { void main() { if (*) { print_uint32(1); } "
            "else { print_uint32(2); } } }",
            "A", "B",
        )
        for result in check_both_ways(low, high):
            assert not result.holds and not result.inconclusive
            assert not result.hit_domain_bound
            assert "no high-level state simulates" in (
                result.counterexample.description
            )

    def test_bounded_integer_draw_is_inconclusive(self):
        low, high = machines(
            "level A { var x: uint32; void main() "
            "{ x := 3; print_uint32(x); } } "
            "level B { var x: uint32; void main() "
            "{ x := *; print_uint32(x); } }",
            "A", "B",
        )
        for result in check_both_ways(low, high):
            assert not result.holds
            assert result.hit_domain_bound and result.inconclusive
            assert not (result.hit_budget or result.hit_stutter_bound)
            assert "step main#0:AssignStep of B draws uint32 from the " \
                "domain (0, 1)" in result.counterexample.description

    @pytest.mark.parametrize("high_body, inconclusive", [
        ("x := *;", True),
        ("x := 2;", False),
    ], ids=["bounded_draw", "no_draw"])
    def test_unmatched_initial_state(self, high_body, inconclusive):
        checked = check_program(
            "level A { var x: uint32 := 3; void main() "
            "{ print_uint32(x); } } "
            f"level B {{ var x: uint32; void main() {{ {high_body} "
            "print_uint32(x); } }"
        )
        relation = build_relation(
            "low_x == high_x", checked.contexts["A"], checked.contexts["B"]
        )
        result = check_refinement(
            translate_level(checked.contexts["A"]),
            translate_level(checked.contexts["B"]),
            relation=relation,
        )
        assert not result.holds
        assert result.inconclusive is inconclusive
        assert result.hit_domain_bound is inconclusive
        description = result.counterexample.description
        assert ("initial states are not related by R" in description) is (
            not inconclusive
        )


# ---------------------------------------------------------------------------
# Compiled versus interpreted stepping


LOCK_CHAIN3 = (
    Path(__file__).resolve().parents[1]
    / "benchmarks" / "e2e" / "workloads" / "lock_chain3.arm"
)

#: Product states of every proof pair's whole-program check, as counted
#: by the interpreted checker before it moved onto the shared successor
#: function.  Both steppers must keep reproducing them.
PINNED_PRODUCT_STATES = {
    ("lock_chain3", "P0"): 119,
    ("lock_chain3", "P1"): 119,
    ("barrier", "BarrierIntroducesGhosts"): 59,
    ("barrier", "BarrierCementsSafety"): 66,
    ("pointers", "PointersProof"): 27,
    ("tsp", "ImplementationRefinesArbitraryGuard"): 28,
    ("tsp", "ArbitraryGuardRefinesBestLenSequential"): 60,
}


#: The same pairs' product states under C11 RA, where both machines
#: run on the compiled stepper too.
PINNED_RA_PRODUCT_STATES = {
    ("lock_chain3", "P0"): 124,
    ("lock_chain3", "P1"): 124,
    ("barrier", "BarrierIntroducesGhosts"): 29,
    ("barrier", "BarrierCementsSafety"): 34,
    ("pointers", "PointersProof"): 14,
    ("tsp", "ImplementationRefinesArbitraryGuard"): 27,
    ("tsp", "ArbitraryGuardRefinesBestLenSequential"): 68,
}


def _engine_pair(study: str, proof_name: str, memory_model=None):
    """Machines, relation and budget of one proof pair, built the way
    :class:`ProofEngine` builds them for its whole-program check."""
    if study == "lock_chain3":
        source, max_states = LOCK_CHAIN3.read_text(), None
    else:
        case = load_case_study(study)
        source, max_states = case.source, case.max_states
    checked = check_program(source, filename=f"<{study}>")
    engine = ProofEngine(
        checked, memory_model=memory_model,
        **({"max_states": max_states} if max_states else {}),
    )
    proof = next(
        p for p in checked.program.proofs if p.name == proof_name
    )
    relation = relation_from_recipe(
        proof,
        checked.contexts[proof.low_level],
        checked.contexts[proof.high_level],
    )
    return (
        engine.machine(proof.low_level),
        engine.machine(proof.high_level),
        dict(relation=relation, max_product_states=engine.max_states),
    )


def _pair(low: str, high: str):
    return machines(f"level A {{ {low} }} level B {{ {high} }}", "A", "B")


def _litmus_pair(low: str, high: str):
    from tests.test_trace_replay import machine_for

    return machine_for(low), machine_for(high)


def _weak_memory_pair():
    from tests.test_trace_replay import LITMUS, _print_regs

    return _litmus_pair(
        LITMUS["SB"], "void main() { " + _print_regs("1", "1") + " }"
    )


#: The refuting pairs of this module and of the trace-replay suite.
REFUTING_PAIRS = {
    "different_output": lambda: _pair(
        "void main() { print_uint32(7); }",
        "void main() { print_uint32(8); }",
    ),
    "low_nondeterminism": lambda: _pair(
        "void main() { if (*) { print_uint32(1); } "
        "else { print_uint32(2); } }",
        "void main() { print_uint32(1); }",
    ),
    "low_ub": lambda: _pair(
        "void main() { var a: uint32 := 1; var b: uint32 := 0; "
        "a := a / b; }",
        "void main() { }",
    ),
    "trace_to_failure": lambda: _pair(
        "var x: uint32; void main() { x := 1; print_uint32(7); }",
        "var x: uint32; void main() { x := 1; print_uint32(8); }",
    ),
    "unsimulatable_step": lambda: _litmus_pair(
        "void main() { print_uint32(2); }",
        "void main() { print_uint32(1); }",
    ),
    "weak_memory": _weak_memory_pair,
}


def _signature(result):
    cex = result.counterexample
    return (
        result.holds,
        result.hit_budget,
        result.hit_stutter_bound,
        result.product_states,
        None if cex is None else (cex.description, cex.trace,
                                  cex.low_state),
    )


class TestCompiledDifferential:
    @pytest.mark.parametrize(
        "study,proof_name", sorted(PINNED_PRODUCT_STATES)
    )
    def test_proof_pairs_match_and_keep_their_counts(
        self, study, proof_name
    ):
        low, high, options = _engine_pair(study, proof_name)
        compiled, interpreted = check_both_ways(low, high, **options)
        assert _signature(compiled) == _signature(interpreted)
        assert compiled.holds
        assert compiled.product_states == \
            PINNED_PRODUCT_STATES[study, proof_name]

    @pytest.mark.parametrize(
        "study,proof_name", sorted(PINNED_RA_PRODUCT_STATES)
    )
    def test_ra_proof_pairs_match_and_keep_their_counts(
        self, study, proof_name
    ):
        low, high, options = _engine_pair(study, proof_name, "ra")
        assert stepper_for(low) is not None
        assert stepper_for(high) is not None
        compiled, interpreted = check_both_ways(low, high, **options)
        assert _signature(compiled) == _signature(interpreted)
        assert compiled.holds
        assert compiled.product_states == \
            PINNED_RA_PRODUCT_STATES[study, proof_name]

    def test_ra_weak_memory_refutation_matches(self):
        from tests.test_trace_replay import LITMUS, _print_regs

        def ra_machine(body: str):
            return translate_level(
                check_level("level L { " + body + " }"), memory_model="ra"
            )

        low = ra_machine(LITMUS["SB"])
        high = ra_machine("void main() { " + _print_regs("1", "1") + " }")
        compiled, interpreted = check_both_ways(low, high)
        assert _signature(compiled) == _signature(interpreted)
        assert not compiled.holds and not compiled.inconclusive
        assert compiled.counterexample.trace

    @pytest.mark.parametrize("name", sorted(REFUTING_PAIRS))
    def test_refuting_pairs_match(self, name):
        low, high = REFUTING_PAIRS[name]()
        compiled, interpreted = check_both_ways(low, high)
        assert _signature(compiled) == _signature(interpreted)
        assert not compiled.holds and not compiled.inconclusive
        assert compiled.counterexample.trace

    def test_budget_cut_matches(self):
        low, high = machines(
            "level A { void main() { var i: uint32 := 0; "
            "while i < 40 { i := i + 1; } } } "
            "level B { void main() { var i: uint32 := 0; "
            "while i < 40 { i := i + 1; } } }",
            "A", "B",
        )
        results = check_both_ways(low, high, max_product_states=5)
        assert _signature(results[0]) == _signature(results[1])
        assert results[0].hit_budget and results[0].inconclusive
