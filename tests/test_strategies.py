"""Tests for the eight refinement strategies (§4.2).

Each strategy gets positive cases (the correspondence holds, the proof
verifies) and negative cases exercising the paper's two failure modes:
"Armada will either generate an error message indicating the problem or
generate an invalid proof [whose verification] will produce an error
message" (§2.2).
"""

import pytest

from repro.proofs.engine import verify_source


def run(source: str):
    return verify_source(source).outcomes[0]


def two_levels(low_body: str, high_body: str, recipe: str,
               decls: str = "var x: uint32;") -> str:
    return (
        f"level Low {{ {decls} void main() {{ {low_body} }} }}\n"
        f"level High {{ {decls} void main() {{ {high_body} }} }}\n"
        f"proof P {{ refinement Low High {recipe} }}\n"
    )


class TestWeakening:
    def test_identical_programs(self):
        outcome = run(two_levels("x := 1;", "x := 1;", "weakening"))
        assert outcome.success

    def test_equivalent_rewrite_bitmask_modulo(self):
        # The paper's §4.1.2 example.
        outcome = run(two_levels(
            "var y: uint32 := 0; y := x & 1;",
            "var y: uint32 := 0; y := x % 2;",
            "weakening",
        ))
        assert outcome.success

    def test_wrong_rewrite_fails_verification(self):
        outcome = run(two_levels(
            "var y: uint32 := 0; y := x & 3;",
            "var y: uint32 := 0; y := x % 2;",
            "weakening",
        ))
        assert not outcome.success
        assert "verification failed" in outcome.error

    def test_different_targets_rejected_structurally(self):
        outcome = run(two_levels(
            "x := 1;", "var y: uint32 := 0; y := 1;", "weakening"
        ))
        assert not outcome.success
        assert "correspondence" in outcome.error

    def test_assignment_to_somehow(self):
        outcome = run(two_levels(
            "x := x % 2 + 1;",
            "somehow modifies x ensures x <= 2;",
            "weakening",
        ))
        assert outcome.success

    def test_assignment_violating_somehow_post(self):
        outcome = run(two_levels(
            "x := 5;",
            "somehow modifies x ensures x <= 2;",
            "weakening",
        ))
        assert not outcome.success

    def test_somehow_pair_with_old_of_an_expression_refuted(self):
        # old(x + 1) reads x before the step: the low side adds one, the
        # high side two, and the statement lemma itself must say so (x
        # is never printed, so the whole-program check cannot).
        for high_post in ("x == old(x) + 2", "x == old(x + 2)"):
            outcome = run(two_levels(
                "somehow modifies x ensures x == old(x + 1);",
                f"somehow modifies x ensures {high_post};",
                "weakening",
            ))
            assert not outcome.success
            assert "verification failed" in outcome.error
            assert outcome.script.global_checks == []

    def test_somehow_pair_with_old_of_an_expression_proved(self):
        outcome = run(two_levels(
            "somehow modifies x ensures x == old(x + 1);",
            "somehow modifies x ensures x == old(x) + 1;",
            "weakening",
        ))
        assert outcome.success
        assert outcome.script.global_checks == []

    def test_somehow_pair_with_a_literal_on_either_side_proved(self):
        # 1 + y is uint32 like y + 1, so both wrap at the maximum.
        outcome = run(two_levels(
            "somehow modifies y ensures y == old(y + 1);",
            "somehow modifies y ensures y == old(1 + y);",
            "weakening",
            decls="var y: uint32;",
        ))
        assert outcome.success

    def test_somehow_pair_frames_unmodified_variables(self):
        # The low side leaves y alone, so old(y) is y for both sides.
        outcome = run(two_levels(
            "somehow modifies x ensures x == old(y);",
            "somehow modifies x, y ensures x == y && y == old(y);",
            "weakening",
            decls="var x: uint32; var y: uint32;",
        ))
        assert outcome.success
        assert outcome.script.global_checks == []

    def test_guard_star_requires_nondet_strategy(self):
        outcome = run(two_levels(
            "if x > 0 { x := 1; }", "if (*) { x := 1; }", "weakening"
        ))
        assert not outcome.success
        assert "nondet_weakening" in outcome.error


def _self_copy_levels() -> list[tuple[str, str]]:
    """(level name, level source) for every case-study level, plus the
    two programs the former ``regular_to_atomic`` suite proved against
    an identical copy of themselves."""
    from repro.casestudies import ALL, load

    levels = [
        level for study in ALL for level in load(study).levels
    ]
    levels.append((
        "Straight",
        "level Straight { var x: uint32; void main() "
        "{ var t: uint32 := 0; t := t + 1; t := t * 2; x := t; "
        "print_uint32(x); } }",
    ))
    levels.append((
        "SharedWrites",
        "level SharedWrites { var x: uint32; "
        "void t() { x := 1; } "
        "void main() { var a: uint64 := 0; a := create_thread t(); "
        "x := 2; x := 3; join a; } }",
    ))
    return levels


@pytest.mark.parametrize("memory_model", ("sc", "tso", "ra"))
@pytest.mark.parametrize("name,level", [
    pytest.param(name, level, id=name)
    for name, level in _self_copy_levels()
])
def test_weakening_proves_a_level_against_its_copy(name, level,
                                                   memory_model):
    """A level refines an identical copy of itself by ``weakening``:
    the recipe that replaces one naming ``regular_to_atomic``."""
    copy = level.replace(f"level {name} ", f"level {name}Copy ", 1)
    source = (
        f"{level}\n{copy}\n"
        f"proof P {{ refinement {name} {name}Copy weakening }}\n"
    )
    outcome = verify_source(source, memory_model=memory_model)
    assert outcome.success, [o.error for o in outcome.outcomes]
    assert outcome.chain == [name, f"{name}Copy"]


class TestNondetWeakening:
    def test_guard_to_star(self):
        outcome = run(two_levels(
            "if x > 0 { x := 1; }", "if (*) { x := 1; }",
            "nondet_weakening",
        ))
        assert outcome.success

    def test_value_to_star(self):
        outcome = run(two_levels(
            "x := 3;", "x := *;", "nondet_weakening"
        ))
        assert outcome.success

    def test_witness_recorded_in_lemma(self):
        outcome = run(two_levels(
            "x := 3;", "x := *;", "nondet_weakening"
        ))
        rendered = outcome.script.render()
        assert "witness" in rendered

    def test_star_cannot_refine_concrete(self):
        outcome = run(two_levels(
            "if (*) { x := 1; }", "if x > 0 { x := 1; }",
            "nondet_weakening",
        ))
        assert not outcome.success


class TestTsoElim:
    DECLS = "var x: uint32; var mu: uint64;"
    LOW = (
        "var t: uint32 := 0; initialize_mutex(&mu); lock(&mu); "
        "t := x; x {op} t + 1; unlock(&mu);"
    )

    def _source(self, low_op, high_op, predicate='"mu == $me"'):
        return two_levels(
            self.LOW.format(op=low_op),
            self.LOW.format(op=high_op),
            f"tso_elim x {predicate}",
            decls=self.DECLS,
        )

    def test_lock_protected_elimination(self):
        outcome = run(self._source(":=", "::="))
        assert outcome.success

    def test_unprotected_access_fails(self):
        source = two_levels(
            "var t: uint32 := 0; t := x; x := t + 1;",
            "var t: uint32 := 0; t := x; x ::= t + 1;",
            'tso_elim x "mu == $me"',
            decls=self.DECLS,
        )
        outcome = run(source)
        assert not outcome.success
        assert "ownership" in outcome.error

    def test_missing_arguments_rejected(self):
        outcome = run(self._source(":=", "::=", predicate=""))
        assert not outcome.success

    def test_unknown_variable_rejected(self):
        source = two_levels(
            self.LOW.format(op=":="), self.LOW.format(op="::="),
            'tso_elim zzz "mu == $me"', decls=self.DECLS,
        )
        outcome = run(source)
        assert not outcome.success

    def test_nothing_changed_rejected(self):
        outcome = run(self._source(":=", ":="))
        assert not outcome.success
        assert "nothing to eliminate" in outcome.error


class TestReduction:
    DECLS = "var x: uint32; var mu: uint64;"
    BODY = (
        "var t: uint32 := 0; initialize_mutex(&mu); {open} lock(&mu); "
        "t := x; x := t + 1; unlock(&mu); {close}"
    )

    def _source(self, wrap_high=True, wrap_low=False):
        low = self.BODY.format(
            open="atomic {" if wrap_low else "",
            close="}" if wrap_low else "",
        )
        high = self.BODY.format(
            open="atomic {" if wrap_high else "",
            close="}" if wrap_high else "",
        )
        return two_levels(low, high, "reduction", decls=self.DECLS)

    def test_lock_protected_reduction(self):
        outcome = run(self._source())
        assert outcome.success

    def test_commutativity_lemmas_generated(self):
        outcome = run(self._source())
        names = [l.name for l in outcome.script.lemmas]
        assert any(n.startswith("Commute_") for n in names)
        assert any(n.startswith("PhaseDiscipline") for n in names)

    def test_no_removed_yields_rejected(self):
        outcome = run(self._source(wrap_high=False))
        assert not outcome.success

    def test_cannot_add_yield_points(self):
        outcome = run(self._source(wrap_high=False, wrap_low=True))
        assert not outcome.success

    def test_unprotected_region_fails_phase_check(self):
        # Two racy reads in one region are two non-movers: the shape
        # R* [N] L* cannot be established (at most one commit point).
        def level(name, body):
            return (
                f"level {name} {{ var x: uint32; var y: uint32; "
                f"void worker() {{ var t: uint32 := 0; "
                f"var u: uint32 := 0; {body} }} "
                "void main() { var a: uint64 := 0; "
                "a := create_thread worker(); x := 1; y := 1; join a; } }"
            )

        source = (
            level("Low", "t := x; u := y;")
            + level("High", "atomic { t := x; u := y; }")
            + "proof P { refinement Low High reduction }"
        )
        outcome = run(source)
        assert not outcome.success
        assert "PhaseDiscipline" in outcome.error


class TestAssumeIntro:
    def test_valid_enabling_condition(self):
        outcome = run(two_levels(
            "x := 5;", "x := 5; assume x == 5;", "assume_intro"
        ))
        assert outcome.success

    def test_false_enabling_condition(self):
        outcome = run(two_levels(
            "x := 5;", "x := 5; assume x == 6;", "assume_intro"
        ))
        assert not outcome.success
        assert "EnablingCondition" in outcome.error

    def test_no_assume_rejected(self):
        outcome = run(two_levels("x := 5;", "x := 5;", "assume_intro"))
        assert not outcome.success

    def test_bad_invariant_detected(self):
        source = two_levels(
            "x := 5;", "x := 5; assume x == 5;",
            'assume_intro invariant "x == 0"',
        )
        outcome = run(source)
        assert not outcome.success

    def test_rely_guarantee_predicate_checked(self):
        # x only grows; the rely holds.
        source = (
            "level Low { var x: uint32; "
            "void worker() { x ::= 1; } "
            "void main() { var a: uint64 := 0; var t: uint32 := 0; "
            "a := create_thread worker(); t := x; join a; } } "
            "level High { var x: uint32; "
            "void worker() { x ::= 1; } "
            "void main() { var a: uint64 := 0; var t: uint32 := 0; "
            "a := create_thread worker(); t := x; assume x >= t; "
            "join a; } } "
            'proof P { refinement Low High assume_intro '
            'rely_guarantee "old(x) <= x" }'
        )
        outcome = run(source)
        assert outcome.success

    def test_violated_rely_detected(self):
        source = (
            "level Low { var x: uint32; "
            "void worker() { x ::= 1; x ::= 0; } "
            "void main() { var a: uint64 := 0; "
            "a := create_thread worker(); join a; } } "
            "level High { var x: uint32; "
            "void worker() { x ::= 1; x ::= 0; } "
            "void main() { var a: uint64 := 0; "
            "a := create_thread worker(); assume true; join a; } } "
            'proof P { refinement Low High assume_intro '
            'rely_guarantee "old(x) <= x" }'
        )
        outcome = run(source)
        assert not outcome.success
        assert "RelyGuarantee" in outcome.error

    def test_path_lemmas_rendered(self):
        outcome = run(two_levels(
            "if x > 0 { x := 1; } else { x := 2; }",
            "if x > 0 { x := 1; } else { x := 2; } assume x <= 2;",
            "assume_intro",
        ))
        assert outcome.success
        assert any(
            l.name.startswith("PathLemma") for l in outcome.script.lemmas
        )


class TestVarIntroAndHiding:
    GHOST = "ghost var count: int;"

    def test_intro_ghost(self):
        source = (
            "level Low { var x: uint32; void main() { x := 1; } } "
            f"level High {{ var x: uint32; {self.GHOST} "
            "void main() { x := 1; count := count + 1; } } "
            "proof P { refinement Low High var_intro }"
        )
        assert run(source).success

    def test_intro_nothing_rejected(self):
        source = two_levels("x := 1;", "x := 1;", "var_intro")
        assert not run(source).success

    def test_intro_variable_never_assigned_rejected(self):
        source = (
            "level Low { var x: uint32; void main() { x := 1; } } "
            f"level High {{ var x: uint32; {self.GHOST} "
            "void main() { x := 1; } } "
            "proof P { refinement Low High var_intro }"
        )
        assert not run(source).success

    def test_intro_cannot_change_existing_statements(self):
        source = (
            "level Low { var x: uint32; void main() { x := 1; } } "
            f"level High {{ var x: uint32; {self.GHOST} "
            "void main() { x := 2; count := count + 1; } } "
            "proof P { refinement Low High var_intro }"
        )
        assert not run(source).success

    def test_hide_ghost(self):
        source = (
            f"level Low {{ var x: uint32; {self.GHOST} "
            "void main() { x := 1; count := count + 1; } } "
            "level High { var x: uint32; void main() { x := 1; } } "
            "proof P { refinement Low High var_hiding }"
        )
        assert run(source).success

    def test_hide_still_read_rejected(self):
        source = (
            "level Low { var x: uint32; var y: uint32; "
            "void main() { y := 1; x := y; } } "
            "level High { var x: uint32; void main() { x := 1; } } "
            "proof P { refinement Low High var_hiding }"
        )
        outcome = run(source)
        assert not outcome.success

    def test_hide_array_writes(self):
        source = (
            "level Low { var a: uint32[2]; var x: uint32; "
            "void main() { var i: uint32 := 0; a[i] := 1; x := 2; } } "
            "level High { var x: uint32; "
            "void main() { var i: uint32 := 0; x := 2; } } "
            "proof P { refinement Low High var_hiding }"
        )
        assert run(source).success


class TestCombining:
    def test_atomic_block_to_somehow(self):
        source = two_levels(
            "atomic { x := x + 1; x := x + 1; }",
            "somehow modifies x ensures x == old(x) + 2;",
            "combining",
        )
        assert run(source).success

    def test_wrong_aggregate_effect(self):
        # The outcome must be observable for the whole-program check to
        # distinguish the aggregate effects.
        source = two_levels(
            "atomic { x := x + 1; x := x + 1; } print_uint32(x);",
            "somehow modifies x ensures x == old(x) + 3; "
            "print_uint32(x);",
            "combining",
        )
        assert not run(source).success

    def test_prefix_lemmas_generated(self):
        source = two_levels(
            "atomic { x := x + 1; x := x + 1; }",
            "somehow modifies x ensures x == old(x) + 2;",
            "combining",
        )
        outcome = run(source)
        assert any(
            l.name.startswith("Combine_") for l in outcome.script.lemmas
        )

    def test_non_atomic_mismatch_rejected(self):
        source = two_levels(
            "x := x + 1; x := x + 1;",
            "somehow modifies x ensures x == old(x) + 2;",
            "combining",
        )
        outcome = run(source)
        assert not outcome.success


class TestRegistry:
    def test_unknown_strategy_reported(self):
        outcome = run(two_levels("x := 1;", "x := 1;", "warp_drive"))
        assert not outcome.success
        assert "unknown proof strategy" in outcome.error

    def test_all_eight_strategies_registered(self):
        from repro.strategies.registry import available_strategies

        registered = set(available_strategies())
        assert registered >= {
            "weakening", "nondet_weakening", "tso_elim", "reduction",
            "assume_intro", "combining", "var_intro", "var_hiding",
        }
        assert "regular_to_atomic" not in registered

    def test_regular_to_atomic_is_unknown(self):
        from repro.errors import StrategyError
        from repro.strategies.registry import lookup

        with pytest.raises(StrategyError, match="regular_to_atomic"):
            lookup("regular_to_atomic")


class TestJobFingerprints:
    """Cache-collision regression fence.

    Every engine option that can change a verdict must be part of
    ``_job_fingerprint()``: PR 7's model-replay bug was exactly a
    missing dimension (verdicts cached under one memory model replayed
    under another).  This matrix enumerates the verdict-bearing
    configuration axis — the memory model — and requires every value
    to fingerprint distinctly, so adding an axis without fingerprinting
    it fails here, not in a user's cache.
    """

    @staticmethod
    def _engine(**kwargs):
        from repro.lang.frontend import check_program
        from repro.proofs.engine import ProofEngine

        checked = check_program(
            "level L { var x: uint32; void main() { x := 1; } }"
        )
        return ProofEngine(checked, **kwargs)

    def test_every_option_combination_is_distinct(self):
        fingerprints = {}
        for memory_model in ("sc", "tso", "ra"):
            engine = self._engine(memory_model=memory_model)
            fingerprints[memory_model] = engine._job_fingerprint()
        assert len(set(fingerprints.values())) == len(fingerprints), (
            "job fingerprints collide across verdict-bearing options"
        )

    def test_max_states_is_fingerprinted(self):
        a = self._engine(max_states=100)._job_fingerprint()
        b = self._engine(max_states=200)._job_fingerprint()
        assert a != b
