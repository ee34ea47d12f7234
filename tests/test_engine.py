"""Tests for the proof engine: chains, directives, customization."""

import pytest

from repro.farm import FarmConfig, VerificationFarm
from repro.lang.frontend import check_program
from repro.proofs.engine import ProofEngine, verify_source
from repro.verifier.prover import REFUTED, TIMEOUT, UNKNOWN


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
        outcome = engine.run_all().outcomes[0]
        assert outcome.success
        names = [l.name for l in outcome.script.lemmas]
        assert "WholeProgramRefinement" in names

    def test_validate_never_skips_global_checks(self):
        checked = check_program(TWO_STEP_CHAIN)
        engine = ProofEngine(checked, validate_refinement="never")
        outcome = engine.run_all().outcomes[0]
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

    def test_each_machine_is_rendered_once(self, monkeypatch):
        # The level fingerprints and both proofs' preambles read the
        # definitions of Mid; every module that holds the renderer
        # counts toward the total.
        import sys
        from collections import Counter

        import repro.strategies  # noqa: F401 — binds their imports
        from repro.proofs import render

        original = render.render_machine_definitions
        rendered = Counter()

        def counting(machine):
            rendered[machine.level_name] += 1
            return original(machine)

        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("repro") and \
                    vars(module).get("render_machine_definitions") \
                    is original:
                monkeypatch.setattr(module, "render_machine_definitions",
                                    counting)
        outcome = verify_source(TWO_STEP_CHAIN)
        assert outcome.success
        assert rendered == {"Impl": 1, "Mid": 1, "Spec": 1}

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
    def test_truncated_sweep_is_inconclusive_instead_of_passing(self):
        # A budget too small for the state space must not verify the
        # proof — never let a silently truncated enumeration discharge
        # an obligation — and must not refute it either: the cut says
        # nothing about the program.
        ok = verify_source(SWEEPING_PROOF)
        assert ok.success
        clipped = verify_source(SWEEPING_PROOF, max_states=3)
        assert not clipped.success
        assert clipped.inconclusive
        assert clipped.status == "inconclusive"
        assert any(
            "state budget" in (o.error or "") for o in clipped.outcomes
        )
        for outcome in clipped.outcomes:
            if not outcome.success:
                assert outcome.inconclusive
                assert outcome.error.startswith("inconclusive:")

    def test_budget_cut_in_phase_obligations_is_inconclusive(self):
        # The reduction strategy generates its script without sweeping;
        # its phase obligations classify the movers over one sweep of
        # the low level.  A cut there leaves every phase verdict
        # UNKNOWN, and the proof is inconclusive rather than failed.
        from repro.casestudies import load
        from repro.verifier.prover import UNKNOWN

        outcome = verify_source(load("mcslock").source, max_states=300)
        by_name = {o.proof_name: o for o in outcome.outcomes}
        reduction = by_name["MCSReducesCriticalSection"]
        assert not reduction.success and reduction.inconclusive
        assert reduction.script is not None
        phases = [
            lemma for lemma in reduction.script.lemmas
            if lemma.name.startswith("PhaseDiscipline")
        ]
        assert len(phases) == 2
        assert all(lemma.verdict.status == UNKNOWN for lemma in phases)
        assert reduction.error.startswith("inconclusive:")
        assert "state budget" in reduction.error
        assert by_name["MCSCementsMutualExclusion"].inconclusive
        assert outcome.status == "inconclusive"


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


#: Three identical levels: both whole-program checks verify when run.
IDENTICAL_CHAIN = (
    "level A { var x: uint32; void main() { x := 1; print_uint32(x); } }\n"
    "level B { var x: uint32; void main() { x := 1; print_uint32(x); } }\n"
    "level C { var x: uint32; void main() { x := 1; print_uint32(x); } }\n"
    "proof P { refinement A B weakening }\n"
    "proof Q { refinement B C weakening }\n"
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

    def test_bounded_havoc_domain_is_inconclusive_not_failed(self):
        # Mid prints 3; Spec's x := * draws only 0 or 1 in the bounded
        # check, so a missing match is no refutation.
        outcome = verify_source(
            TWO_STEP_CHAIN, validate_refinement="always"
        )
        by_name = {o.proof_name: o for o in outcome.outcomes}
        assert by_name["ImplToMid"].success
        mid_to_spec = by_name["MidToSpec"]
        assert not mid_to_spec.success and mid_to_spec.inconclusive
        assert "whole-program refinement check inconclusive" in (
            mid_to_spec.error
        )
        assert "draws uint32 from the domain (0, 1)" in mid_to_spec.error
        assert outcome.status == "inconclusive"

    def test_same_pair_verifies_within_budget(self):
        checked = check_program(LOOP_PAIR)
        engine = ProofEngine(checked, validate_refinement="always")
        outcome = engine.run_all()
        assert outcome.status == "verified"

    def _run_twice(self, source, tmp_path, **options):
        """Two runs of *source* with every check against one cache:
        [(chain outcome, farm summary)] of each."""
        runs = []
        for _ in range(2):
            farm = VerificationFarm(
                FarmConfig(cache_dir=tmp_path / "cache")
            )
            outcome = ProofEngine(
                check_program(source), validate_refinement="always",
                farm=farm, **options,
            ).run_all()
            runs.append((outcome, farm.summary()))
        return runs

    @pytest.mark.parametrize("relation, max_states, cut", [
        ("", 5, "product state budget exhausted"),
        # Unmatched at the start, where the high level's stutter
        # closure is cut: 41 loop iterations exceed the stutter bound.
        (' relation "low_i == high_i + 1"', 200_000,
         "stutter bound of 8 high-level steps cut the search"),
    ], ids=["product_budget", "stutter_bound"])
    def test_cut_check_is_executed_again_by_a_second_run(
        self, relation, max_states, cut, tmp_path
    ):
        source = LOOP_PAIR.replace("weakening }", f"weakening{relation} }}")
        for outcome, summary in self._run_twice(
            source, tmp_path, max_states=max_states
        ):
            (proof,) = outcome.outcomes
            assert outcome.status == "inconclusive"
            assert proof.error.startswith(
                "inconclusive: WholeProgramRefinement: "
            )
            assert cut in proof.error
            # The cut check keeps its script, and is never stored.
            assert proof.lemma_count > 0
            assert [label for label, _ in summary.slowest] == [
                "P:WholeProgramRefinement"
            ]
            assert summary.cache_stores == 0

    def test_domain_cut_check_is_executed_again_by_a_second_run(
        self, tmp_path
    ):
        (first, cold), (second, warm) = self._run_twice(
            TWO_STEP_CHAIN, tmp_path
        )
        assert first.status == second.status == "inconclusive"
        # Only MidToSpec's WholeProgramRefinement is never stored.
        assert cold.executed == cold.jobs
        assert cold.cache_stores == cold.jobs - 1
        assert (warm.executed, warm.cache_hits, warm.cache_stores) == (
            1, warm.jobs - 1, 0
        )

    def test_refutation_is_served_from_the_cache(self, tmp_path):
        # R cannot hold of the initial states, and the high level's
        # stutter closure is complete, so the check refutes.
        source = IDENTICAL_CHAIN.replace(
            "proof P { refinement A B weakening }",
            'proof P { refinement A B weakening '
            'relation "low_x == high_x + 1" }',
        ).replace("proof Q { refinement B C weakening }\n", "")
        (cold, cold_summary), (warm, warm_summary) = self._run_twice(
            source, tmp_path
        )
        assert (cold_summary.executed, cold_summary.cache_stores) == (1, 1)
        assert (warm_summary.executed, warm_summary.cache_hits) == (0, 1)
        for outcome in (cold, warm):
            (proof,) = outcome.outcomes
            assert outcome.status == "failed"
            check = proof.script.lemmas[-1]
            assert check.name == "WholeProgramRefinement"
            assert check.verdict.status == REFUTED
            assert check.verdict.counterexample == {
                "witness": "initial states are not related by R"
            }
        assert warm.outcomes[0].error == cold.outcomes[0].error


class TestUnsettledWholeProgramChecks:
    """A whole-program check the farm never ran, because the chain
    budget was spent or a drain was requested, leaves its proof
    inconclusive, not failed, and nothing reaches the cache."""

    @pytest.mark.parametrize("cut, status", [
        ("chain_deadline", TIMEOUT), ("drain", UNKNOWN),
    ])
    def test_unsettled_check_is_inconclusive_and_unstored(
        self, cut, status, tmp_path
    ):
        # Run in full, the same chain verifies.
        assert verify_source(
            IDENTICAL_CHAIN, validate_refinement="always"
        ).status == "verified"
        cache_dir = tmp_path / "cache"
        if cut == "chain_deadline":
            farm = VerificationFarm(
                FarmConfig(cache_dir=cache_dir, chain_deadline=0)
            )
        else:
            farm = VerificationFarm(FarmConfig(cache_dir=cache_dir))
            farm.request_shutdown()
        outcome = ProofEngine(
            check_program(IDENTICAL_CHAIN), validate_refinement="always",
            farm=farm,
        ).run_all()
        assert outcome.status == "inconclusive"
        for proof in outcome.outcomes:
            assert not proof.success and proof.inconclusive
            assert proof.error.startswith(
                "inconclusive: WholeProgramRefinement: "
            )
            checks = [
                lemma for lemma in proof.script.lemmas
                if lemma.name == "WholeProgramRefinement"
            ]
            assert [check.verdict.status for check in checks] == [status]
        summary = farm.summary()
        assert (summary.jobs, summary.executed) == (2, 0)
        assert summary.cache_stores == 0
        assert not list(cache_dir.rglob("*.verdict"))


def _requests_reachable_from(root):
    """Every :class:`ProofRequest` reachable from *root*: through
    objects, containers and closures, but not through modules, classes
    or a function's globals, which reach the whole heap."""
    import gc
    import types

    from repro.strategies.base import ProofRequest

    found, seen, stack = [], set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType)):
            continue
        seen.add(id(obj))
        if isinstance(obj, ProofRequest):
            found.append(obj)
        if isinstance(obj, types.FunctionType):
            for cell in obj.__closure__ or ():
                try:
                    stack.append(cell.cell_contents)
                except ValueError:  # an empty cell
                    pass
            stack.extend(obj.__defaults__ or ())
            stack.extend((obj.__kwdefaults__ or {}).values())
        else:
            stack.extend(gc.get_referents(obj))
    return found


class TestFinishedOutcomesHoldNoSweeps:
    """A finished outcome keeps its script, whose obligations keep their
    strategy's request; the request's state sweeps must not stay alive
    with it (the serve daemon caches thousands of outcomes)."""

    def test_no_outcome_reaches_a_sweep(self):
        from repro.casestudies import load

        outcome = verify_source(load("mcslock").source)
        assert outcome.success
        requests = [
            request
            for proof in outcome.outcomes
            for request in _requests_reachable_from(proof)
        ]
        # The traversal does reach the requests: the assume_intro
        # obligations hold theirs.
        assert requests
        assert all(not request._reachable_cache for request in requests)
