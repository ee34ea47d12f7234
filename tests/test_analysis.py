"""Tests for ``repro.analysis`` — the static race & TSO-robustness
analyzer — and for the tso_elim verdicts the analyzer only advises on.

The analyzer's claims are adversarially grounded two ways here: litmus
tests whose racy/robust status is known from the x86-TSO literature,
and the shipped case studies whose verdicts are cross-checked against
the bounded explorer (a reported race must come with a dynamic
witness; a lock-protected claim must survive predicate replay).
"""

import json

import pytest

from repro.analysis import (
    Classification,
    analyze_level,
    validate_predicate,
)
from repro.lang.frontend import check_level, check_program
from repro.proofs.engine import verify_source


def analyze_source(source: str, max_states: int = 200_000):
    """Analyze a single bare level body."""
    ctx = check_level("level L { " + source + " }")
    return analyze_level(ctx, max_states=max_states)


SB_SOURCE = (
    "var x: uint32; var y: uint32; var r1: uint32; var r2: uint32; "
    "void t1() { x := 1; r1 := y; fence(); } "
    "void main() { var a: uint64 := 0; a := create_thread t1(); "
    "y := 1; r2 := x; join a; fence(); print_uint32(r2); }"
)

MP_SOURCE = (
    "var data: uint32; var flag: uint32; "
    "var rf: uint32; var rd: uint32; "
    "void writer() { data := 42; flag := 1; } "
    "void main() { var a: uint64 := 0; a := create_thread writer(); "
    "rf := flag; rd := data; join a; fence(); print_uint32(rd); }"
)

LOCKED_SOURCE = (
    "var c: uint32; var m: uint64; "
    "void worker() { lock(&m); c := c + 1; unlock(&m); } "
    "void main() { var a: uint64 := 0; var r: uint32 := 0; "
    "initialize_mutex(&m); a := create_thread worker(); "
    "lock(&m); c := c + 1; unlock(&m); join a; "
    "lock(&m); r := c; unlock(&m); print_uint32(r); }"
)


class TestLitmusClassification:
    def test_store_buffering_is_racy_with_witnesses(self):
        result = analyze_source(SB_SOURCE)
        for name in ("x", "y"):
            verdict = result.verdict(name)
            assert verdict.classification is Classification.RACY
            assert verdict.dynamic == "confirmed"
            assert verdict.witness is not None
            first, second = verdict.witness.first_tid, \
                verdict.witness.second_tid
            assert first != second
        assert result.racy() == ["x", "y"]

    def test_store_buffering_is_tso_sensitive(self):
        result = analyze_source(SB_SOURCE)
        sensitive = {
            name for name, v in result.verdicts.items() if v.tso_sensitive
        }
        assert sensitive == {"x", "y"}

    def test_sb_registers_are_not_racy(self):
        result = analyze_source(SB_SOURCE)
        # r2 is written and read by main alone; r1 is written by t1 and
        # read never concurrently (post-join reads race only through
        # pending drains, and t1 fences before returning).
        assert result.classification("r2") is Classification.THREAD_LOCAL
        assert result.classification("r1") in (
            Classification.THREAD_LOCAL, Classification.ORDERED
        )

    def test_message_passing_is_racy_but_tso_robust(self):
        result = analyze_source(MP_SOURCE)
        assert set(result.racy()) == {"data", "flag"}
        sensitive = [
            name for name, v in result.verdicts.items() if v.tso_sensitive
        ]
        # TSO's FIFO buffers preserve the publication order: no load
        # can observe flag without data, so no store is flagged.
        assert sensitive == []


class TestLockDiscipline:
    def test_lock_protected_counter(self):
        result = analyze_source(LOCKED_SOURCE)
        verdict = result.verdict("c")
        assert verdict.classification is Classification.LOCK_PROTECTED
        assert verdict.locks == ("m",)
        assert result.classification("m") is Classification.ATOMIC
        assert result.racy() == []

    def test_ownership_suggestion_validated(self):
        result = analyze_source(LOCKED_SOURCE)
        suggestion = result.suggestion_for("c")
        assert suggestion is not None
        assert suggestion.predicate == "m == $me"
        assert suggestion.validated

    def test_wrong_predicate_rejected(self):
        result = analyze_source(LOCKED_SOURCE)
        ok, note = validate_predicate(
            result.ctx, result.machine, result.access_map,
            "c", "m != $me",
        )
        assert not ok
        assert "access" in note or "simultaneously" in note


class TestThreadLocal:
    SOURCE = (
        "var x: uint32; "
        "void main() { x := 1; x := x + 1; print_uint32(x); }"
    )

    def test_single_threaded_global_is_thread_local(self):
        result = analyze_source(self.SOURCE)
        verdict = result.verdict("x")
        assert verdict.classification is Classification.THREAD_LOCAL
        assert verdict.dynamic == "confirmed"

    def test_thread_local_gets_no_ownership_advice(self):
        # A thread-local location still needs a real ownership
        # predicate: tso_elim proves it like any other, so the analyzer
        # offers nothing it has not validated.
        result = analyze_source(self.SOURCE)
        assert result.suggestion_for("x") is None
        assert "suggest:" not in result.report().render_text()

    def test_static_only_thread_local_stays_unchecked(self):
        static_only = analyze_level(
            check_level("level L { " + self.SOURCE + " }"),
            dynamic=False,
        )
        verdict = static_only.verdict("x")
        assert verdict.classification is Classification.THREAD_LOCAL
        assert verdict.dynamic != "confirmed"


class TestStaticOnlyMode:
    def test_static_racy_stays_unchecked_without_scan(self):
        result = analyze_level(
            check_level("level L { " + SB_SOURCE + " }"),
            dynamic=False,
        )
        verdict = result.verdict("x")
        assert verdict.classification is Classification.RACY
        assert verdict.dynamic == "unchecked"
        assert verdict.witness is None


class TestReport:
    def test_text_report_mentions_witness(self):
        text = analyze_source(SB_SOURCE).report().render_text()
        assert "RACY" in text
        assert "witness:" in text
        assert "dynamic cross-check" in text

    def test_json_report_round_trips(self):
        data = json.loads(analyze_source(SB_SOURCE).report().to_json())
        assert data["level"] == "L"
        racy = [
            f for f in data["findings"] if f["classification"] == "RACY"
        ]
        assert {f["location"] for f in racy} == {"x", "y"}
        assert all(f["severity"] == "high" for f in racy)
        assert data["stats"]["dynamic_complete"] is True


FASTPATH_PROGRAM = (
    "level Low { var x: uint32 := 0; void main() "
    "{ x := 1; x := x + 1; print_uint32(x); } }\n"
    "level High { var x: uint32 := 0; void main() "
    "{ x ::= 1; x ::= x + 1; print_uint32(x); } }\n"
    'proof P { refinement Low High tso_elim x "true" }\n'
)


def two_thread_program(predicate: str) -> str:
    """Two threads, of which only ``main`` touches ``x``."""
    def level(name: str, assign: str) -> str:
        return (
            f"level {name} {{ var x: uint32 := 0; var y: uint32 := 0; "
            "void t() { y := 1; } "
            "void main() { var a: uint64 := 0; a := create_thread t(); "
            f"x {assign} 1; x {assign} x + 1; join a; print_uint32(x); "
            "} }\n"
        )

    return (
        level("Low", ":=") + level("High", "::=")
        + f"proof P {{ refinement Low High tso_elim x {predicate} }}\n"
    )


class TestTsoElimOwnership:
    """tso_elim proves its ownership discipline with checked lemmas,
    whatever the analyzer thinks of the location."""

    def test_thread_local_elimination_checks_the_ownership_lemmas(self):
        outcome = verify_source(FASTPATH_PROGRAM)
        assert outcome.success
        script = outcome.outcomes[0].script
        checked = [
            lemma.name for lemma in script.lemmas
            if lemma.obligation is not None
        ]
        assert checked == [
            "OwnershipExclusive",
            "AccessRequiresOwnership_main_0",
            "AccessRequiresOwnership_main_1",
            "AccessRequiresOwnership_main_2",
            "ReleaseImpliesStoreBufferEmpty",
        ]
        assert all(
            lemma.verdict.ok for lemma in script.lemmas
            if lemma.obligation is not None
        )

    def test_predicate_true_fails_when_two_threads_run(self):
        # ``x`` is thread-local, but "true" makes both threads owners:
        # exclusivity is false, and the proof says so.
        outcome = verify_source(two_thread_program('"true"'))
        assert outcome.status == "failed"
        assert outcome.outcomes[0].error == (
            "verification failed: OwnershipExclusive: "
            "{'witness': ('two owners', [1, 2])}"
        )

    def test_honest_predicate_verifies(self):
        outcome = verify_source(two_thread_program('"$me == 1"'))
        assert outcome.success

    def test_racy_tso_elim_target_fails(self):
        program = (
            "level Low { var x: uint32; var r: uint32; "
            "void t() { x := 1; } "
            "void main() { var a: uint64 := 0; a := create_thread t(); "
            "x := 2; r := x; join a; fence(); print_uint32(r); } }\n"
            "level High { var x: uint32; var r: uint32; "
            "void t() { x ::= 1; } "
            "void main() { var a: uint64 := 0; a := create_thread t(); "
            "x ::= 2; r := x; join a; fence(); print_uint32(r); } }\n"
            'proof P { refinement Low High tso_elim x "true" }\n'
        )
        outcome = verify_source(program)
        assert outcome.status == "failed"


class TestCaseStudies:
    """Acceptance: every global of every case-study implementation
    level is classified, and no race is reported without a dynamic
    witness (zero false positives relative to the bounded explorer)."""

    @pytest.mark.parametrize("name,max_states", [
        ("tsp", 200_000),
        ("barrier", 200_000),
        ("mcslock", 400_000),
        ("queue", 400_000),
        ("pointers", 200_000),
    ])
    def test_every_global_classified_and_races_witnessed(
        self, name, max_states
    ):
        from repro.casestudies import load

        study = load(name)
        checked = check_program(study.source, f"<{name}>")
        level_name = checked.program.levels[0].name
        result = analyze_level(
            checked.contexts[level_name], max_states=max_states
        )
        level_globals = {
            g.name for g in checked.contexts[level_name].level.globals
        }
        assert set(result.verdicts) == level_globals
        assert all(
            v.classification is not None
            for v in result.verdicts.values()
        )
        assert result.dynamic is not None and result.dynamic.complete
        for racy_name in result.racy():
            verdict = result.verdict(racy_name)
            assert verdict.dynamic == "confirmed", (
                f"{name}.{racy_name} reported RACY without a witness"
            )
            assert verdict.witness is not None

    def test_lock_protected_studies_race_free(self):
        """tsp and pointers must report no races at all."""
        from repro.casestudies import load

        for name in ("tsp", "pointers"):
            study = load(name)
            checked = check_program(study.source, f"<{name}>")
            level_name = checked.program.levels[0].name
            result = analyze_level(checked.contexts[level_name])
            assert result.racy() == [], f"false positive in {name}"

    def test_tsp_chain_gets_validated_suggestion(self):
        """Acceptance: the analyzer synthesizes a working tso_elim
        predicate for the level the TSP recipe eliminates."""
        from repro.casestudies import load

        study = load("tsp")
        checked = check_program(study.source, "<tsp>")
        result = analyze_level(checked.contexts["ArbitraryGuard"])
        suggestion = result.suggestion_for("best_len")
        assert suggestion is not None
        assert suggestion.predicate == "mutex == $me"
        assert suggestion.validated
