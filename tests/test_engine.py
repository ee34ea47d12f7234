"""Tests for the proof engine: chains, directives, customization."""

from repro.lang.frontend import check_program
from repro.proofs.engine import ProofEngine, verify_source


TWO_STEP_CHAIN = """
level Impl {
  var x: uint32;
  void main() { x := 3; print_uint32(x); }
}
level Mid {
  var x: uint32;
  ghost var g: int;
  void main() { x := 3; g := 1; print_uint32(x); }
}
level Spec {
  var x: uint32;
  ghost var g: int;
  void main() { x := *; g := 1; print_uint32(x); }
}
proof ImplToMid { refinement Impl Mid var_intro }
proof MidToSpec { refinement Mid Spec nondet_weakening }
"""


class TestChains:
    def test_chain_composed(self):
        outcome = verify_source(TWO_STEP_CHAIN)
        assert outcome.success
        assert outcome.chain == ["Impl", "Mid", "Spec"]
        assert outcome.end_to_end

    def test_total_generated_sloc_accumulates(self):
        outcome = verify_source(TWO_STEP_CHAIN)
        assert outcome.total_generated_sloc == sum(
            o.generated_sloc for o in outcome.outcomes
        )
        assert outcome.total_generated_sloc > 0

    def test_broken_link_breaks_chain_success(self):
        source = TWO_STEP_CHAIN.replace("g := 1; print_uint32(x);",
                                        "g := 2; print_uint32(x);", 1)
        outcome = verify_source(source)
        assert not outcome.success

    def test_unknown_level_reported(self):
        outcome = verify_source(
            "level A { void main() { } } "
            "proof P { refinement A Missing weakening }"
        )
        assert not outcome.outcomes[0].success


class TestChainDiagnostics:
    LEVELS = (
        "level A { var x: uint32; void main() { x := 1; } }\n"
        "level B { var x: uint32; void main() { x := 1; } }\n"
        "level C { var x: uint32; void main() { x := 1; } }\n"
        "level D { var x: uint32; void main() { x := 1; } }\n"
    )

    def test_valid_chain_has_no_error(self):
        outcome = verify_source(TWO_STEP_CHAIN)
        assert outcome.chain_error is None

    def test_cycle_reported(self):
        outcome = verify_source(
            self.LEVELS
            + "proof P { refinement A B weakening }\n"
            + "proof Q { refinement B A weakening }\n"
        )
        assert outcome.chain == []
        assert not outcome.end_to_end
        assert "cyclic" in outcome.chain_error

    def test_broken_chain_reported(self):
        outcome = verify_source(
            self.LEVELS
            + "proof P { refinement A B weakening }\n"
            + "proof Q { refinement C D weakening }\n"
        )
        assert outcome.chain == []
        assert "broken" in outcome.chain_error
        assert "A" in outcome.chain_error and "C" in outcome.chain_error

    def test_disconnected_cycle_reported(self):
        outcome = verify_source(
            self.LEVELS
            + "proof P { refinement A B weakening }\n"
            + "proof Q { refinement C D weakening }\n"
            + "proof R { refinement D C weakening }\n"
        )
        assert outcome.chain == []
        assert outcome.chain_error is not None

    def test_no_proofs_reported(self):
        outcome = verify_source("level A { void main() { } }")
        assert outcome.chain == []
        assert "no proofs" in outcome.chain_error


class TestEngineMechanics:
    def test_machines_cached(self):
        checked = check_program(TWO_STEP_CHAIN)
        engine = ProofEngine(checked)
        assert engine.machine("Mid") is engine.machine("Mid")

    def test_validate_always_adds_whole_program_lemma(self):
        checked = check_program(TWO_STEP_CHAIN)
        engine = ProofEngine(checked, validate_refinement="always")
        outcome = engine.run_proof(checked.program.proofs[0])
        assert outcome.success
        names = [l.name for l in outcome.script.lemmas]
        assert "WholeProgramRefinement" in names

    def test_validate_never_skips_global_checks(self):
        checked = check_program(TWO_STEP_CHAIN)
        engine = ProofEngine(checked, validate_refinement="never")
        outcome = engine.run_proof(checked.program.proofs[0])
        names = [l.name for l in (outcome.script.lemmas if outcome.script
                                  else [])]
        assert "WholeProgramRefinement" not in names

    def test_lemma_customization_appended(self):
        source = (
            "level A { var x: uint32; void main() { x := 1; } } "
            "level B { var x: uint32; void main() { x := 1; } } "
            "proof P { refinement A B weakening "
            'lemma Statement_main_0_Weakens "assert BitvectorFact(x);" }'
        )
        outcome = verify_source(source)
        assert outcome.outcomes[0].success
        rendered = outcome.outcomes[0].script.render()
        assert "lemma customization" in rendered
        assert "BitvectorFact" in rendered

    def test_use_regions_directive_adds_lemmas(self):
        source = (
            "level A { var a: uint32; void main() "
            "{ var p: ptr<uint32> := null; p := &a; } } "
            "level B { var a: uint32; void main() "
            "{ var p: ptr<uint32> := null; p := &a; } } "
            "proof P { refinement A B weakening use_regions }"
        )
        outcome = verify_source(source)
        assert outcome.outcomes[0].success
        names = [l.name for l in outcome.outcomes[0].script.lemmas]
        assert "RegionAssignment" in names

    def test_generated_proof_renders_state_machine(self):
        outcome = verify_source(TWO_STEP_CHAIN)
        rendered = outcome.outcomes[1].script.render()
        assert "datatype PC_" in rendered
        assert "NextState_" in rendered
        assert "storeBuffer" in rendered

    def test_strategy_error_is_reported_not_raised(self):
        outcome = verify_source(
            "level A { var x: uint32; void main() { x := 1; } } "
            "level B { var x: uint32; void main() { x := 2; x := 1; } } "
            "proof P { refinement A B weakening }"
        )
        assert not outcome.outcomes[0].success
        assert "correspondence" in outcome.outcomes[0].error


#: A refinement whose obligations enumerate reachable states (tso_elim
#: ownership sweeps), used to probe budget and reduction behaviour.
SWEEPING_PROOF = (
    "level Low { var x: uint32 := 0; void main() { "
    "x := x + 1; x := x + 2; print_uint32(x); } } "
    "level High { var x: uint32 := 0; void main() { "
    "x ::= x + 1; x ::= x + 2; print_uint32(x); } } "
    'proof P { refinement Low High tso_elim x "true" }'
)


class TestStateBudgetHonesty:
    def test_truncated_sweep_refutes_instead_of_passing(self):
        # A budget too small for the state space must fail the proof —
        # never let a silently truncated enumeration discharge an
        # obligation.
        ok = verify_source(SWEEPING_PROOF)
        assert ok.success
        clipped = verify_source(SWEEPING_PROOF, max_states=3)
        assert not clipped.success
        assert any(
            "state budget" in (o.error or "") for o in clipped.outcomes
        )


#: Identical loop levels: 41 loop iterations need far more than five
#: product states, and the plain weakening pair has no lemma obligation
#: that a five-state budget could refute.
LOOP_PAIR = (
    "level A { var i: uint32; void main() { i := 0; "
    "while i < 40 { i := i + 1; } } } "
    "level B { var i: uint32; void main() { i := 0; "
    "while i < 40 { i := i + 1; } } } "
    "proof P { refinement A B weakening }"
)


class TestWholeProgramBounds:
    def test_product_budget_cut_is_inconclusive_not_failed(self):
        checked = check_program(LOOP_PAIR)
        engine = ProofEngine(
            checked, max_states=5, validate_refinement="always"
        )
        outcome = engine.run_all()
        (proof,) = outcome.outcomes
        assert not proof.success
        assert proof.inconclusive
        assert "product state budget exhausted" in proof.error
        assert outcome.status == "inconclusive"

    def test_same_pair_verifies_within_budget(self):
        checked = check_program(LOOP_PAIR)
        engine = ProofEngine(checked, validate_refinement="always")
        outcome = engine.run_all()
        assert outcome.status == "verified"
