"""Unit tests for the regular-to-atomic transformation.

Four layers under test, bottom-up:

* the static independence facts the classification starts from
  (:func:`repro.analysis.independence.step_independence`);
* PC classification (:func:`repro.explore.atomic.classify_atomic`):
  which step kinds break an atomic block, per memory model — every
  thread-visible kind must break, chainable local statements must not,
  and C11 RA must self-disable the whole classification;
* atomic-path construction
  (:func:`repro.strategies.regular_to_atomic.atomic_paths`): the
  ``armada_atomic_path_info_t`` successor-table shape on hand-built
  mini-levels;
* the per-path simulation obligation, including the case the soundness
  story hinges on — a deliberately unsound collapse (an interior PC
  that is actually breaking) must be **rejected**, not sampled into a
  vacuous pass — and the engine-side ``collapse_proof_script``, down
  to whole case studies verifying to the same verdicts with and
  without the collapse.
"""

import pytest

from repro.analysis.independence import step_independence
from repro.casestudies import ALL, load
from repro.explore.atomic import AtomicClassification, classify_atomic
from repro.lang import asts as ast
from repro.lang.frontend import check_level, check_program
from repro.machine.steps import (
    AssertStep,
    AssignStep,
    AssumeStep,
    BranchStep,
    CallStep,
    CreateThreadStep,
    ExternStep,
    JoinStep,
    MallocStep,
    ReturnStep,
    SomehowStep,
)
from repro.machine.translator import translate_level
from repro.proofs.artifacts import Lemma, ProofScript, bool_verdict, proved
from repro.proofs.engine import ProofEngine
from repro.strategies.base import ProofRequest
from repro.strategies.regular_to_atomic import (
    AtomicPathInfo,
    AtomicSuccessorInfo,
    RegularToAtomicStrategy,
    atomic_paths,
    collapse_proof_script,
)

from tests.differential_harness import LITMUS

MODELS = ("sc", "tso")


def machine_for(source: str, memory_model: str = "tso"):
    return translate_level(
        check_level("level L { " + source + " }"),
        memory_model=memory_model,
    )


def pcs_holding(machine, step_type):
    """PCs whose step list contains an instance of *step_type*."""
    return [
        pc for pc, steps in machine.steps_by_pc.items()
        if any(isinstance(s, step_type) for s in steps)
    ]


# ---------------------------------------------------------------------------
# independence facts


class TestIndependenceFacts:
    def test_register_steps_are_local(self):
        machine = machine_for(
            "void main() { var i: uint32 := 0; "
            "while i < 3 { i := i + 1; } print_uint32(i); }"
        )
        facts = step_independence(machine.ctx, machine)
        # Pure register arithmetic and branches qualify; the print
        # (extern) step never does.
        assert facts.local_steps > 0
        assert facts.local_steps < facts.total_steps

    def test_multithreaded_global_not_private(self):
        machine = machine_for(LITMUS["SB"])
        facts = step_independence(machine.ctx, machine)
        assert "x" not in facts.private_globals
        assert "y" not in facts.private_globals

    def test_single_context_global_is_private(self):
        machine = machine_for(
            "var x: uint32; var y: uint32; "
            "void worker() { y := 1; y := 2; } "
            "void main() { var a: uint64 := 0; "
            "a := create_thread worker(); "
            "x := 1; x := 2; join a; fence(); print_uint32(x); }"
        )
        facts = step_independence(machine.ctx, machine)
        # x is only ever touched by main, y only by the worker: both
        # are single-context, so buffered stores to them (and their
        # drains) are invisible to the other thread.
        assert "x" in facts.private_globals
        assert "y" in facts.private_globals

    def test_ghost_mentions_disqualify(self):
        machine = machine_for(
            "ghost var g: uint32 := 0; "
            "void main() { var t: uint32 := 0; g := 1; t := g; }"
        )
        facts = step_independence(machine.ctx, machine)
        # Both the ghost write and the ghost read are non-local.
        checked_some = False
        for steps in machine.steps_by_pc.values():
            for step in steps:
                if not isinstance(step, AssignStep):
                    continue
                mentions_g = any(
                    isinstance(node, ast.Var) and node.name == "g"
                    for expr in step.reads_exprs()
                    for node in ast.walk_expr(expr)
                )
                if mentions_g:
                    checked_some = True
                    assert not facts.is_local(step)
        assert checked_some


# ---------------------------------------------------------------------------
# PC classification


#: One program per step kind.  ``breaking_kinds`` are thread-visible
#: and must classify breaking under sc and tso alike.
TWO_THREADS = (
    "var x: uint32; "
    "void t() { x := 1; } "
    "void main() { var a: uint64 := 0; a := create_thread t(); "
    "x := 2; join a; } "
)

BREAKING_KINDS = [
    ("shared_assign", TWO_THREADS, AssignStep),
    ("create_thread", TWO_THREADS, CreateThreadStep),
    ("join", TWO_THREADS, JoinStep),
    ("return", TWO_THREADS, ReturnStep),
    (
        "extern_output",
        "void main() { var i: uint32 := 0; print_uint32(i); }",
        ExternStep,
    ),
    (
        "assert",
        "void main() { var i: uint32 := 0; assert i == 0; }",
        AssertStep,
    ),
    (
        "somehow",
        "var x: uint32; void main() { somehow modifies x "
        "ensures x <= 2; }",
        SomehowStep,
    ),
    (
        "call",
        "void helper() { } void main() { helper(); }",
        CallStep,
    ),
    (
        "malloc",
        "void main() { var p: ptr<uint32> := null; "
        "p := malloc(uint32); dealloc p; }",
        MallocStep,
    ),
]


class TestStepClassification:
    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize(
        "kind,source,step_type",
        BREAKING_KINDS,
        ids=[k for k, _, _ in BREAKING_KINDS],
    )
    def test_thread_visible_kinds_break(
        self, model, kind, source, step_type
    ):
        machine = machine_for(source, model)
        cls = classify_atomic(machine)
        assert cls.disabled is None
        pcs = pcs_holding(machine, step_type)
        assert pcs, f"no {step_type.__name__} in the program"
        for pc in pcs:
            assert cls.breaking[pc], (
                f"{step_type.__name__} at {pc} must break under {model}"
            )
            assert pc in cls.reasons

    @pytest.mark.parametrize("model", MODELS)
    def test_local_assign_branch_assume_chain(self, model):
        machine = machine_for(
            "void main() { var i: uint32 := 0; i := i + 1; "
            "assume i == 1; if i < 2 { i := i + 2; } "
            "print_uint32(i); }",
            model,
        )
        cls = classify_atomic(machine)
        assert cls.enabled
        # Each chainable kind appears at some non-breaking pc.
        for step_type in (AssignStep, BranchStep, AssumeStep):
            assert any(
                pc in cls.chain_pcs
                for pc in pcs_holding(machine, step_type)
            ), f"no chainable {step_type.__name__} pc under {model}"

    @pytest.mark.parametrize("model", MODELS)
    def test_nondet_guard_breaks(self, model):
        machine = machine_for(
            "void main() { var i: uint32 := 0; "
            "if (*) { i := 1; } print_uint32(i); }",
            model,
        )
        cls = classify_atomic(machine)
        guard_pcs = [
            pc for pc in pcs_holding(machine, BranchStep)
            if any(
                isinstance(s, BranchStep) and s.cond is None
                for s in machine.steps_by_pc[pc]
            )
        ]
        assert guard_pcs
        for pc in guard_pcs:
            assert cls.breaking[pc]

    @pytest.mark.parametrize("model", MODELS)
    def test_loop_head_breaks(self, model):
        machine = machine_for(
            "void main() { var i: uint32 := 0; "
            "while i < 3 { i := i + 1; } print_uint32(i); }",
            model,
        )
        cls = classify_atomic(machine)
        assert cls.loop_heads, "while loop produced no back edge"
        for pc in cls.loop_heads:
            assert cls.breaking[pc]
            assert "loop head" in cls.reasons[pc]

    @pytest.mark.parametrize("model", MODELS)
    def test_method_entries_break(self, model):
        machine = machine_for(TWO_THREADS, model)
        cls = classify_atomic(machine)
        for entry in machine.method_entry.values():
            assert cls.breaking[entry]

    def test_explicit_atomic_region_breaks(self):
        machine = machine_for(
            "var x: uint32; void main() "
            "{ atomic { x := 1; x := 2; } x := 3; }"
        )
        cls = classify_atomic(machine)
        non_yieldable = [
            pc for pc, info in machine.pcs.items() if not info.yieldable
        ]
        assert non_yieldable
        for pc in non_yieldable:
            assert cls.breaking[pc]

    def test_ra_disables_classification(self):
        machine = machine_for(TWO_THREADS, "ra")
        cls = classify_atomic(machine)
        assert not cls.enabled
        assert cls.disabled is not None and "ra" in cls.disabled
        assert "disabled" in cls.describe()

    def test_classification_is_cached_per_machine(self):
        machine = machine_for(TWO_THREADS)
        assert classify_atomic(machine) is classify_atomic(machine)

    def test_describe_counts_non_breaking(self):
        machine = machine_for(
            "void main() { var i: uint32 := 0; i := i + 1; "
            "print_uint32(i); }"
        )
        cls = classify_atomic(machine)
        assert f"{len(cls.chain_pcs)}/{len(cls.breaking)}" \
            in cls.describe()


# ---------------------------------------------------------------------------
# atomic-path construction (the armada_atomic_path_info_t table)


class TestAtomicPaths:
    def test_straightline_run_collapses_to_one_action(self):
        machine = machine_for(
            "void main() { var i: uint32 := 0; i := i + 1; "
            "i := i + 2; i := i + 3; print_uint32(i); }"
        )
        cls = classify_atomic(machine)
        table = atomic_paths(machine, cls)
        complete = [p for p in table if p.complete]
        assert complete
        # Some action absorbs the whole local run: its interior pcs are
        # all non-breaking and its endpoints are not.
        long = max(complete, key=lambda p: len(p.steps))
        assert len(long.steps) >= 3
        assert cls.breaking[long.start_pc]
        for pc in long.pcs[1:-1]:
            assert not cls.breaking[pc]

    def test_prefixes_carry_successor_tables(self):
        machine = machine_for(
            "void main() { var i: uint32 := 0; i := i + 1; "
            "if i < 2 { i := 5; } print_uint32(i); }"
        )
        cls = classify_atomic(machine)
        table = atomic_paths(machine, cls)
        prefixes = [p for p in table if not p.complete]
        assert prefixes, "branching interior must produce prefixes"
        for prefix in prefixes:
            assert prefix.successors
            for succ in prefix.successors:
                child = table[succ.path_index]
                # The successor extends the prefix by exactly the step
                # it names.
                step = machine.steps_at(prefix.pcs[-1])[succ.action_index]
                assert child.steps[: len(prefix.steps)] == prefix.steps
                assert child.steps[len(prefix.steps)] is step

    def test_action_indices_are_dense_and_unique(self):
        machine = machine_for(TWO_THREADS)
        table = atomic_paths(machine)
        indices = sorted(
            p.atomic_action_index for p in table if p.complete
        )
        assert indices == list(range(len(indices)))

    def test_every_path_starts_breaking(self):
        machine = machine_for(
            "void main() { var i: uint32 := 0; i := i + 1; "
            "print_uint32(i); }"
        )
        cls = classify_atomic(machine)
        for info in atomic_paths(machine, cls):
            assert cls.breaking.get(info.start_pc, True)

    def test_ra_paths_raise(self):
        from repro.errors import StrategyError

        machine = machine_for(TWO_THREADS, "ra")
        with pytest.raises(StrategyError, match="ra"):
            atomic_paths(machine)


# ---------------------------------------------------------------------------
# the per-path simulation obligation


def request_for(source: str, memory_model: str = "tso") -> ProofRequest:
    checked = check_program(source)
    proof = checked.program.proofs[0]
    low = checked.contexts[proof.low_level]
    high = checked.contexts[proof.high_level]
    return ProofRequest(
        proof=proof,
        low_ctx=low,
        high_ctx=high,
        low_machine=translate_level(low, memory_model=memory_model),
        high_machine=translate_level(high, memory_model=memory_model),
    )


SELF_REFINEMENT = (
    "level Low { var x: uint32; void main() "
    "{ var t: uint32 := 0; t := t + 1; t := t * 2; x := t; "
    "print_uint32(x); } }\n"
    "level High { var x: uint32; void main() "
    "{ var t: uint32 := 0; t := t + 1; t := t * 2; x := t; "
    "print_uint32(x); } }\n"
    "proof P { refinement Low High regular_to_atomic }\n"
)


class TestPathSimulation:
    def test_sound_paths_prove(self):
        request = request_for(SELF_REFINEMENT)
        script = RegularToAtomicStrategy().generate(request)
        path_lemmas = [
            l for l in script.lemmas
            if l.name.startswith("AtomicPathSimulates")
        ]
        assert path_lemmas
        for lemma in path_lemmas:
            verdict = lemma.obligation()
            assert verdict.ok, verdict.counterexample
            assert verdict.assignments_checked > 0

    def test_breaking_correct_lemma_proves(self):
        request = request_for(SELF_REFINEMENT)
        script = RegularToAtomicStrategy().generate(request)
        (lemma,) = [
            l for l in script.lemmas if l.name == "PcBreakingCorrect"
        ]
        assert lemma.obligation().ok

    def test_unsound_collapse_rejected(self):
        """A hand-built path whose interior PC is actually breaking (a
        shared write another thread can observe mid-block) must be
        refuted by the static re-audit inside the obligation."""
        request = request_for(
            "level Low { var x: uint32; "
            "void t() { x := 1; } "
            "void main() { var a: uint64 := 0; a := create_thread t(); "
            "x := 2; x := 3; join a; } }\n"
            "level High { var x: uint32; "
            "void t() { x := 1; } "
            "void main() { var a: uint64 := 0; a := create_thread t(); "
            "x := 2; x := 3; join a; } }\n"
            "proof P { refinement Low High regular_to_atomic }\n"
        )
        machine = request.low_machine
        cls = classify_atomic(machine)
        # Find two consecutive shared writes in main: x := 2; x := 3.
        write_pcs = [
            pc for pc in pcs_holding(machine, AssignStep)
            if machine.pcs[pc].method == "main" and cls.breaking[pc]
        ]
        assert len(write_pcs) >= 2
        first = min(write_pcs, key=lambda pc: machine.pcs[pc].index)
        (step,) = machine.steps_at(first)
        interior = step.target
        assert cls.breaking[interior], "test premise: interior breaks"
        (after,) = machine.steps_at(interior)
        forged = AtomicPathInfo(
            pcs=(first, interior, after.target),
            steps=(step, after),
            atomic_action_index=0,
        )
        lemma = RegularToAtomicStrategy()._path_lemma(
            machine, request, forged
        )
        verdict = lemma.obligation()
        assert not verdict.ok
        assert verdict.counterexample["pc"] == interior

    def test_disabled_script_under_ra(self):
        request = request_for(SELF_REFINEMENT, memory_model="ra")
        script = RegularToAtomicStrategy().generate(request)
        names = [l.name for l in script.lemmas]
        assert "AtomicCollapseDisabled" in names
        assert "IdentityRefinement" in names
        assert not any(n.startswith("AtomicPathSimulates") for n in names)

    def test_differing_levels_rejected(self):
        from repro.errors import StrategyError

        request = request_for(
            "level Low { var x: uint32; void main() { x := 1; } }\n"
            "level High { var x: uint32; void main() { x := 2; } }\n"
            "proof P { refinement Low High regular_to_atomic }\n"
        )
        with pytest.raises(StrategyError, match="identical"):
            RegularToAtomicStrategy().generate(request)


# ---------------------------------------------------------------------------
# engine-side collapse of proof scripts


def _lemma(name, pc, verdict=None):
    return Lemma(
        name=name,
        statement=name,
        body=[],
        obligation=(lambda: verdict) if verdict is not None else None,
        pc=pc,
    )


def _script(*lemmas):
    script = ProofScript(
        proof_name="P", strategy="weakening",
        low_level="Low", high_level="High",
    )
    for lemma in lemmas:
        script.add(lemma)
    return script


CLS = AtomicClassification(
    breaking={"a": True, "b": False, "c": False, "d": True},
    reasons={"a": "shared", "d": "shared"},
    chain_pcs=frozenset({"b", "c"}),
)


class TestCollapseProofScript:
    def test_merges_a_non_breaking_run(self):
        script = _script(
            _lemma("L0", "a", proved()),
            _lemma("L1", "b", proved()),
            _lemma("L2", "c", proved()),
            _lemma("L3", "d", proved()),
        )
        absorbed = collapse_proof_script(script, CLS)
        # L0..L2 merge (block opens at a, extends through chain pcs
        # b and c); L3 opens a new block that stays singleton.
        assert absorbed == 2
        names = [l.name for l in script.lemmas]
        assert names == ["AtomicBlock_L0_x3", "L3"]
        assert script.lemmas[0].obligation().ok
        assert script.lemmas[0].pc == "a"

    def test_first_failure_wins_and_names_the_member(self):
        script = _script(
            _lemma("L0", "a", proved()),
            _lemma("L1", "b", bool_verdict(False, {"x": 1})),
            _lemma("L2", "c", proved()),
        )
        collapse_proof_script(script, CLS)
        (merged,) = script.lemmas
        verdict = merged.obligation()
        assert not verdict.ok
        assert verdict.counterexample["lemma"] == "L1"
        assert verdict.counterexample["x"] == 1

    def test_untagged_and_definitional_lemmas_break_blocks(self):
        script = _script(
            _lemma("L0", "a", proved()),
            _lemma("Definitional", None),          # no obligation, no pc
            _lemma("L1", "b", proved()),
        )
        absorbed = collapse_proof_script(script, CLS)
        assert absorbed == 0
        assert [l.name for l in script.lemmas] == [
            "L0", "Definitional", "L1",
        ]

    def test_unknown_pcs_never_merge(self):
        script = _script(
            _lemma("L0", "zz", proved()),
            _lemma("L1", "zz", proved()),
        )
        assert collapse_proof_script(script, CLS) == 0

    def test_disabled_classification_is_a_noop(self):
        script = _script(
            _lemma("L0", "a", proved()),
            _lemma("L1", "b", proved()),
        )
        disabled = AtomicClassification(disabled="ra")
        assert collapse_proof_script(script, disabled) == 0
        assert len(script.lemmas) == 2

    def test_customizations_concatenate(self):
        first = _lemma("L0", "a", proved())
        second = _lemma("L1", "b", proved())
        first.customization.append("// tweak-a")
        second.customization.append("// tweak-b")
        script = _script(first, second)
        collapse_proof_script(script, CLS)
        (merged,) = script.lemmas
        assert merged.customization == ["// tweak-a", "// tweak-b"]


# ---------------------------------------------------------------------------
# engine-side collapse on the case studies

#: Case studies whose proof scripts hold runs of non-breaking lemmas,
#: so the collapse merges some of their obligations.
COLLAPSING = ("mcslock", "queue")


class TestCaseStudyVerdicts:
    """``ProofEngine(atomic=True)`` merges lemma obligations and keeps
    every verdict: on each case study each proof succeeds or fails as
    it does without the collapse, the level chain composes the same
    way, and no proof gains lemmas."""

    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("name", sorted(ALL))
    def test_collapse_keeps_verdicts(self, name, model):
        study = load(name)
        base, collapsed = (
            ProofEngine(
                check_program(study.source, f"<{name}>"),
                max_states=study.max_states,
                memory_model=model,
                atomic=atomic,
            ).run_all()
            for atomic in (False, True)
        )
        assert [(o.proof_name, o.success) for o in collapsed.outcomes] \
            == [(o.proof_name, o.success) for o in base.outcomes]
        assert collapsed.success == base.success
        assert collapsed.chain == base.chain
        assert collapsed.end_to_end == base.end_to_end
        for plain, merged in zip(base.outcomes, collapsed.outcomes):
            assert merged.lemma_count <= plain.lemma_count
        if name in COLLAPSING:
            assert sum(o.lemma_count for o in collapsed.outcomes) < \
                sum(o.lemma_count for o in base.outcomes)
