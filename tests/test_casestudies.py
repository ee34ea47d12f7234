"""Tests for the evaluation case studies (Table 1 + the running
example): every chain verifies, sources stay core-compilable where the
paper requires it, and seeded mutations are caught."""

import pytest

from repro.casestudies import ALL, TABLE1, load, run_case_study, sloc
from repro.casestudies import barrier, mcslock, pointers, queue, tsp
from repro.lang.core_check import check_core
from repro.lang.frontend import check_level, check_program
from repro.proofs.engine import ProofEngine, verify_source


@pytest.mark.parametrize("name", sorted(ALL))
def test_case_study_verifies(name):
    report = run_case_study(load(name))
    failures = [r for r in report.rows() if not r["verified"]]
    assert report.verified, failures


@pytest.mark.parametrize("memory_model", ("sc", "ra"))
@pytest.mark.parametrize("name", sorted(ALL))
def test_case_study_verifies_under_sc_and_ra(name, memory_model):
    """``run_case_study`` verifies under TSO, the default model; every
    chain also verifies under the other two."""
    study = load(name)
    outcome = ProofEngine(
        check_program(study.source, f"<{name}>"),
        max_states=study.max_states,
        memory_model=memory_model,
    ).run_all()
    failures = [
        (o.proof_name, o.error) for o in outcome.outcomes if not o.success
    ]
    assert outcome.success, failures
    assert outcome.chain == [lname for lname, _ in study.levels]


@pytest.mark.parametrize("name", sorted(ALL))
def test_implementation_level_is_core(name):
    study = load(name)
    ctx = check_level(study.levels[0][1])
    check_core(ctx)  # must not raise: level 0 is compilable (§3.1.1)


@pytest.mark.parametrize("name", sorted(ALL))
def test_chain_is_connected(name):
    study = load(name)
    level_names = [lname for lname, _ in study.levels]
    report = run_case_study(study)
    assert report.outcome.chain == level_names


def test_registry_contents():
    assert set(TABLE1) == {"barrier", "pointers", "mcslock", "queue"}
    assert "tsp" in ALL
    with pytest.raises(KeyError):
        load("nonexistent")


def test_sloc_counter_ignores_comments_and_blanks():
    assert sloc("// comment\n\nx := 1;\n  // more\ny := 2;") == 2


class TestSeededMutations:
    """Each mutation plants a real concurrency bug; the corresponding
    proof must fail (the reproduction's soundness spot-checks)."""

    def test_barrier_without_wait_fails(self):
        study = barrier.get()
        broken = [
            (name, text.replace("while flag0 == 0 {\n    }", "", 1))
            for name, text in study.levels
        ]
        source = "\n".join(t for _, t in broken) + "\n".join(
            t for _, t in study.recipes
        )
        outcome = verify_source(source)
        assert not outcome.success

    def test_tsp_unlocked_update_fails_tso_elim(self):
        study = tsp.get()
        # Order matters: "lock(&mutex);" is a suffix of
        # "unlock(&mutex);", so remove the unlocks first.
        source = study.source.replace("unlock(&mutex);", "").replace(
            "lock(&mutex);", ""
        )
        outcome = verify_source(source)
        assert not outcome.success

    def test_pointers_aliasing_fails(self):
        study = pointers.get()
        source = study.source.replace("q := &b;", "q := p;")
        outcome = verify_source(source)
        assert not outcome.success

    def test_queue_missing_ghost_append_fails(self):
        study = queue.get()
        source = study.source.replace("q := q + [v];", "", 1)
        outcome = verify_source(source)
        assert not outcome.success

    def test_mcslock_wrong_owner_fails(self):
        study = mcslock.get()
        source = study.source.replace(
            "assume owner == $me;", "assume owner != $me;"
        )
        outcome = verify_source(source)
        assert not outcome.success


#: Every ``armada casestudy all`` row: proof -> (lemmas, generated
#: SLOC).  EXPERIMENTS.md Table 1 reports these numbers; a change to
#: any of them must be reported there too.
TABLE1_ROWS = {
    "tsp": {
        "ImplementationRefinesArbitraryGuard": (24, 714),
        "ArbitraryGuardRefinesBestLenSequential": (7, 313),
    },
    "barrier": {
        "BarrierIntroducesGhosts": (17, 275),
        "BarrierCementsSafety": (8, 284),
    },
    "pointers": {
        "PointersProof": (15, 425),
    },
    "mcslock": {
        "MCSIntroducesOwner": (44, 660),
        "MCSCementsMutualExclusion": (9, 581),
        "MCSReducesCriticalSection": (254, 2963),
    },
    "queue": {
        "QueueIntroducesAbstractQueue": (36, 545),
        "QueueCementsInvariant": (6, 471),
        "QueueLogsAbstractly": (37, 1073),
        "QueueErasesConcreteReads": (37, 1082),
        "QueueHidesElements": (37, 558),
        "QueueHidesWriteIndex": (36, 543),
        "QueueHidesReadIndex": (35, 528),
    },
}


@pytest.mark.parametrize("name", sorted(ALL))
def test_lemma_counts_and_generated_sloc_pinned(name):
    report = run_case_study(load(name))
    rows = {
        row["proof"]: (row["lemmas"], row["generated_sloc"])
        for row in report.rows()
    }
    assert rows == TABLE1_ROWS[name]


class TestPaperNumbers:
    def test_effort_amplification(self):
        # The central claim: generated proofs dwarf the recipes.
        for name in TABLE1:
            report = run_case_study(load(name))
            assert report.total_generated_sloc > \
                10 * max(1, report.total_recipe_sloc), name

    def test_queue_final_level_is_small(self):
        study = queue.get()
        final = sloc(study.levels[-1][1])
        assert final <= study.implementation_sloc

    def test_barrier_level1_recipe_tiny(self):
        study = barrier.get()
        assert sloc(study.recipes[0][1]) <= 6
