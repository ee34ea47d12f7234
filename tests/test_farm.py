"""Tests for the verification farm: scheduling, caching, equivalence.

The load-bearing property is *cache equivalence*: uncached and cached
discharge of a full case-study chain must produce identical per-lemma
verdicts and the same ``ChainOutcome`` success — incrementality is a
pure optimisation.
"""

import pathlib
import pickle

import pytest

from repro.casestudies import TABLE1, load, run_case_study
from repro.errors import ProofFailure, StateBudgetExceeded
from repro.farm import (
    FarmConfig,
    ProofCache,
    VerificationFarm,
    lemma_job_key,
    lemma_jobs,
    structural_hash,
)
from repro.proofs.artifacts import (
    Lemma,
    ObligationDescriptor,
    ProofScript,
    proved,
)
from repro.verifier.prover import (
    REFUTED,
    UNKNOWN,
    ProverConfig,
    Verdict,
)


def snapshot(outcome):
    """Byte-comparable view of every per-lemma verdict in a chain."""
    rows = []
    for proof_outcome in outcome.outcomes:
        lemmas = (
            proof_outcome.script.lemmas
            if proof_outcome.script is not None else []
        )
        rows.append(
            (
                proof_outcome.proof_name,
                proof_outcome.success,
                tuple(
                    (lemma.name, repr(lemma.verdict)) for lemma in lemmas
                ),
            )
        )
    return rows


def make_script(body="assert x > 0;", counter=None):
    """A one-obligation script whose obligation counts its calls."""
    script = ProofScript("P", "weakening", "Low", "High")
    calls = counter if counter is not None else []

    def obligation():
        calls.append(1)
        return proved()

    script.add(Lemma("L1", "claims something", [body],
                     obligation=obligation))
    return script, calls


class TestStructuralHash:
    def test_stable(self):
        assert structural_hash("a", ("b", 1)) == \
            structural_hash("a", ("b", 1))

    def test_no_concatenation_collisions(self):
        assert structural_hash("ab") != structural_hash("a", "b")
        assert structural_hash(("ab",)) != structural_hash(("a", "b"))

    def test_type_tagged(self):
        assert structural_hash(1) != structural_hash("1")
        assert structural_hash(True) != structural_hash(1)


class TestDescriptors:
    def test_descriptor_is_picklable_and_hashable(self):
        lemma = Lemma("L", "stmt", ["b1"], customization=["c1"])
        descriptor = lemma.descriptor()
        assert hash(descriptor) == hash(pickle.loads(
            pickle.dumps(descriptor)
        ))
        assert descriptor == ObligationDescriptor.of(lemma)

    def test_fingerprint_tracks_content(self):
        base = Lemma("L", "stmt", ["b1"]).fingerprint()
        assert Lemma("L", "stmt", ["b1"]).fingerprint() == base
        assert Lemma("L", "stmt", ["b2"]).fingerprint() != base
        assert Lemma("L", "stmt2", ["b1"]).fingerprint() != base
        assert Lemma("L2", "stmt", ["b1"]).fingerprint() != base
        custom = Lemma("L", "stmt", ["b1"])
        custom.customization.append("assert extra;")
        assert custom.fingerprint() != base


class TestScheduler:
    def test_stable_job_keys(self):
        script, _ = make_script()
        first = [j.key for j in lemma_jobs(script, "pf")]
        second = [j.key for j in lemma_jobs(script, "pf")]
        assert first == second

    def test_definitional_lemmas_not_scheduled(self):
        script, _ = make_script()
        script.definitional("Defs", "datatypes", ["datatype T"])
        assert len(lemma_jobs(script, "pf")) == 1

    def test_key_depends_on_prover_fingerprint(self):
        script, _ = make_script()
        [a] = lemma_jobs(script, ProverConfig().fingerprint())
        [b] = lemma_jobs(
            script, ProverConfig(random_samples=64).fingerprint()
        )
        assert a.key != b.key


class TestProofCache:
    def test_hit_after_rerun(self, tmp_path):
        counter = []
        farm = VerificationFarm(FarmConfig(cache_dir=tmp_path / "c"))
        script1, _ = make_script(counter=counter)
        farm.discharge(lemma_jobs(script1, "pf"))
        assert counter == [1]
        assert script1.lemmas[0].verdict.ok

        script2, _ = make_script(counter=counter)
        farm2 = VerificationFarm(FarmConfig(cache_dir=tmp_path / "c"))
        farm2.discharge(lemma_jobs(script2, "pf"))
        assert counter == [1]  # obligation never re-ran
        assert repr(script2.lemmas[0].verdict) == \
            repr(script1.lemmas[0].verdict)
        assert farm2.summary().cache_hits == 1

    def test_invalidated_by_body_change(self, tmp_path):
        counter = []
        cache_dir = tmp_path / "c"
        script1, _ = make_script("assert x > 0;", counter)
        VerificationFarm(FarmConfig(cache_dir=cache_dir)).discharge(
            lemma_jobs(script1, "pf")
        )
        script2, _ = make_script("assert x >= 1;", counter)
        farm = VerificationFarm(FarmConfig(cache_dir=cache_dir))
        farm.discharge(lemma_jobs(script2, "pf"))
        assert counter == [1, 1]
        assert farm.summary().cache_hits == 0

    def test_invalidated_by_customization(self, tmp_path):
        counter = []
        cache_dir = tmp_path / "c"
        script1, _ = make_script(counter=counter)
        VerificationFarm(FarmConfig(cache_dir=cache_dir)).discharge(
            lemma_jobs(script1, "pf")
        )
        script2, _ = make_script(counter=counter)
        script2.lemmas[0].customization.append("assert Extra(x);")
        VerificationFarm(FarmConfig(cache_dir=cache_dir)).discharge(
            lemma_jobs(script2, "pf")
        )
        assert counter == [1, 1]

    def test_invalidated_by_prover_config_change(self, tmp_path):
        counter = []
        cache_dir = tmp_path / "c"
        script1, _ = make_script(counter=counter)
        VerificationFarm(FarmConfig(cache_dir=cache_dir)).discharge(
            lemma_jobs(script1, ProverConfig().fingerprint())
        )
        script2, _ = make_script(counter=counter)
        VerificationFarm(FarmConfig(cache_dir=cache_dir)).discharge(
            lemma_jobs(
                script2,
                ProverConfig(exhaustive_bits=3).fingerprint(),
            )
        )
        assert counter == [1, 1]

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ProofCache(tmp_path / "c")
        key = lemma_job_key(Lemma("L", "s", ["b"]), "pf")
        assert cache.put(key, Verdict("proved"))
        path = cache._path(key)
        path.write_bytes(b"not a pickle")
        assert cache.get(key) is None
        assert not path.exists()  # dropped
        assert cache.misses == 1

    def test_len_counts_entries(self, tmp_path):
        cache = ProofCache(tmp_path / "c")
        assert len(cache) == 0
        cache.put("ab" + "0" * 62, Verdict("proved"))
        cache.put("cd" + "0" * 62, Verdict("refuted"))
        assert len(cache) == 2


class TestSummary:
    def test_lifecycle_counts(self):
        farm = VerificationFarm()
        script, _ = make_script()
        farm.discharge(lemma_jobs(script, "pf"))
        summary = farm.summary()
        assert summary.jobs == 1
        assert summary.executed == 1
        assert summary.cache_hits == 0
        assert [label for label, _ in summary.slowest] == [
            f"{script.proof_name}:{script.lemmas[0].name}"
        ]

    def test_counts_accumulate_across_discharges(self):
        farm = VerificationFarm()
        for _ in range(2):
            script, _ = make_script()
            farm.discharge(lemma_jobs(script, "pf"))
        summary = farm.summary()
        assert (summary.jobs, summary.executed) == (2, 2)
        assert len(summary.slowest) == 2

    def test_slowest_keeps_the_five_slowest(self):
        from repro.farm import FarmSummary

        summary = FarmSummary()
        for index, seconds in enumerate([1, 3, 2, 3, 1, 5, 0, 2]):
            summary.record_executed(f"L{index}", float(seconds))
        assert summary.slowest == [
            ("L5", 5.0), ("L1", 3.0), ("L3", 3.0), ("L2", 2.0),
            ("L7", 2.0),
        ]
        assert summary.executed == 8
        assert summary.worker_seconds == 17.0

    def test_report_drops_sub_millisecond_times_and_sorts_ties(self):
        """Times that print as 0.000s are left out of the report, and
        equal printed times go by label."""
        from repro.farm import FarmSummary

        summary = FarmSummary()
        for label, seconds in [("b", 0.0004), ("d", 0.0021),
                               ("c", 0.0019), ("a", 0.0), ("e", 0.25)]:
            summary.record_executed(label, seconds)
        lines = summary.report_lines()
        assert lines[lines.index("slowest obligations:") + 1:] == [
            "     0.250s  e",
            "     0.002s  c",
            "     0.002s  d",
        ]
        # The serve result reports the raw seconds, in the same order.
        assert summary.slowest == [
            ("e", 0.25), ("c", 0.0019), ("d", 0.0021), ("a", 0.0),
            ("b", 0.0004),
        ]
        assert summary.to_dict()["slowest"] == summary.slowest

    def test_equal_printed_times_are_cut_by_label(self):
        """Which of two equally printed times is kept does not depend
        on timer noise or on the order the obligations ran in."""
        from repro.farm import FarmSummary

        kept = set()
        for order in ([("z", 0.0021), ("y", 0.0019)],
                      [("y", 0.0021), ("z", 0.0019)]):
            summary = FarmSummary()
            for label, seconds in [("a", 0.9), ("b", 0.8), ("c", 0.7),
                                   ("d", 0.6), *order]:
                summary.record_executed(label, seconds)
            kept.add(tuple(label for label, _ in summary.slowest))
        assert kept == {("a", "b", "c", "d", "y")}

    def test_report_without_a_measurable_time_lists_none(self):
        from repro.farm import FarmSummary

        summary = FarmSummary()
        summary.record_executed("a", 0.0002)
        assert "slowest obligations:" not in summary.report_lines()


class TestModeEquivalence:
    """Uncached and cached runs of a full case-study chain agree
    byte-for-byte on per-lemma verdicts."""

    @pytest.fixture(scope="class")
    def study(self):
        return load("tsp")

    @pytest.fixture(scope="class")
    def sequential(self, study):
        return run_case_study(study)

    def test_cached_equivalent_and_hit_rate(
        self, study, sequential, tmp_path
    ):
        cache_dir = tmp_path / "proof-cache"
        cold_farm = VerificationFarm(FarmConfig(cache_dir=cache_dir))
        cold = run_case_study(study, farm=cold_farm)
        assert snapshot(cold.outcome) == snapshot(sequential.outcome)

        warm_farm = VerificationFarm(FarmConfig(cache_dir=cache_dir))
        warm = run_case_study(study, farm=warm_farm)
        assert warm.outcome.success == sequential.outcome.success
        assert snapshot(warm.outcome) == snapshot(sequential.outcome)
        summary = warm_farm.summary()
        # Every obligation, whole-program checks included, comes from
        # the cache.
        assert summary.jobs > 0
        assert summary.executed == 0
        assert summary.cache_hits == summary.jobs

    def test_always_policy_warm_run_executes_nothing(
        self, study, tmp_path
    ):
        """The whole-program checks ``validate always`` adds are lemma
        obligations, cached like every other."""
        uncached = run_case_study(study, validate_refinement="always")
        assert uncached.outcome.success
        assert all(
            outcome.refinement_checked
            for outcome in uncached.outcome.outcomes
        )
        cache_dir = tmp_path / "proof-cache"
        run_case_study(
            study, validate_refinement="always",
            farm=VerificationFarm(FarmConfig(cache_dir=cache_dir)),
        )
        warm_farm = VerificationFarm(FarmConfig(cache_dir=cache_dir))
        warm = run_case_study(
            study, validate_refinement="always", farm=warm_farm
        )
        assert snapshot(warm.outcome) == snapshot(uncached.outcome)
        summary = warm_farm.summary()
        assert summary.executed == 0
        assert summary.cache_hits == summary.jobs > 0


def forbid_stepping(monkeypatch):
    """Make every way of stepping a state raise: the compiled stepper's
    entry points and ``Explorer`` wherever a ``repro`` module bound
    them, and the interpreter's ``next_state``/``enabled_transitions``."""
    import sys

    from repro.compiler import stepc
    from repro.explore import explorer
    from repro.machine.program import StateMachine

    def forbidden(*args, **kwargs):
        raise AssertionError("a warm run stepped a state")

    entry_points = (stepc.successors_for, stepc.stepper_for,
                    explorer.Explorer)
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if any(value is entry for entry in entry_points):
                monkeypatch.setattr(module, attr, forbidden)
    monkeypatch.setattr(StateMachine, "next_state", forbidden)
    monkeypatch.setattr(StateMachine, "enabled_transitions", forbidden)


class TestCacheEquivalenceEveryStudy:
    """An uncached run, a cold cached run and a warm cached run of every
    Table 1 chain agree byte-for-byte on per-lemma verdicts, and the
    warm run steps no state: proof generation is static, and every
    obligation that sweeps comes from the cache."""

    @pytest.mark.parametrize("name", sorted(TABLE1))
    def test_cold_and_warm_match_uncached(self, name, tmp_path,
                                          monkeypatch):
        study = load(name)
        uncached = run_case_study(study)
        cache_dir = tmp_path / "proof-cache"
        cold = run_case_study(
            study, farm=VerificationFarm(FarmConfig(cache_dir=cache_dir))
        )
        warm_farm = VerificationFarm(FarmConfig(cache_dir=cache_dir))
        forbid_stepping(monkeypatch)
        warm = run_case_study(study, farm=warm_farm)
        assert snapshot(cold.outcome) == snapshot(uncached.outcome)
        assert snapshot(warm.outcome) == snapshot(uncached.outcome)
        assert warm.outcome.success == uncached.outcome.success
        summary = warm_farm.summary()
        assert summary.cache_hits + summary.executed == summary.jobs


class TestBudgetCuts:
    """A reachability sweep cut by its state budget neither proves nor
    refutes its obligation, so the farm must not settle it."""

    def _run(self, tmp_path, error):
        """(verdict, summary, verdict a fresh cache reads back) of one
        job whose obligation raises *error*."""
        from repro.farm import FarmSummary, Job, run_jobs

        def thunk():
            raise error

        sink = []
        summary = FarmSummary()
        run_jobs([Job("k", "P:L", thunk, sink.append)],
                 cache=ProofCache(tmp_path / "cache"), summary=summary)
        return sink[0], summary, ProofCache(tmp_path / "cache").get("k")

    def test_budget_cut_is_unknown_and_never_stored(self, tmp_path):
        verdict, summary, cached = self._run(
            tmp_path, StateBudgetExceeded(10)
        )
        assert verdict.status == UNKNOWN and verdict.inconclusive
        assert "state budget" in verdict.counterexample["error"]
        assert cached is None
        assert (summary.executed, summary.cache_stores) == (1, 0)

    def test_other_armada_errors_still_refute(self, tmp_path):
        verdict, summary, cached = self._run(
            tmp_path, ProofFailure("no such lemma")
        )
        assert verdict.status == REFUTED
        assert "no such lemma" in verdict.counterexample["error"]
        assert cached.status == REFUTED
        assert (summary.executed, summary.cache_stores) == (1, 1)


class TestMachineFingerprint:
    """Cache keys must track whole-machine semantics, not just lemma
    text: reachability-based obligations depend on global initial
    values that never appear in a lemma body."""

    @pytest.fixture(scope="class")
    def source(self):
        path = (pathlib.Path(__file__).parent.parent
                / "examples" / "running_example.arm")
        return path.read_text()

    def _verify(self, source, cache_dir):
        from repro.proofs.engine import verify_source

        farm = VerificationFarm(FarmConfig(cache_dir=cache_dir))
        outcome = verify_source(source, farm=farm)
        assert outcome.success
        return farm.summary()

    def test_semantic_edit_invalidates(self, source, tmp_path):
        cache_dir = tmp_path / "proof-cache"
        cold = self._verify(source, cache_dir)
        assert cold.cache_hits == 0

        warm = self._verify(source, cache_dir)
        assert warm.cache_hits > 0

        # Changing a global initializer changes the reachable-state
        # space every path/ownership obligation quantifies over, even
        # though no lemma statement or body mentions the literal.
        edited = source.replace(
            "best_len: uint32 := 255", "best_len: uint32 := 254"
        )
        assert edited != source
        after_edit = self._verify(edited, cache_dir)
        assert after_edit.cache_hits == 0

    def test_formatting_edit_still_hits(self, source, tmp_path):
        cache_dir = tmp_path / "proof-cache"
        self._verify(source, cache_dir)
        commented = "// formatting-only change\n" + source
        summary = self._verify(commented, cache_dir)
        assert summary.cache_hits > 0


class TestWholeProgramCheckKey:
    """The whole-program check's cache key covers what its verdict
    depends on: both machines with their initial values (the machine
    fingerprint), the recipe's relation (the lemma statement) and the
    product-state budget (the job fingerprint).  Each edit below makes
    the next warm run execute the check again."""

    SOURCE = (
        "level Low { var count: uint32 := 1; "
        "void main() { print_uint32(3); } }\n"
        "level High { var count: uint32 := 1; "
        "void main() { print_uint32(3); } }\n"
        "proof P { refinement Low High weakening "
        'relation "low_count <= high_count && low_log == high_log" }\n'
    )

    def _executed(self, source, cache_dir, max_states=200_000):
        """Labels of the obligations one run executed."""
        from repro.proofs.engine import verify_source

        farm = VerificationFarm(FarmConfig(cache_dir=cache_dir))
        outcome = verify_source(
            source, max_states=max_states, validate_refinement="always",
            farm=farm,
        )
        assert outcome.success, outcome.outcomes[0].error
        return [label for label, _ in farm.summary().slowest]

    @pytest.mark.parametrize("edit", [
        "initializer", "relation", "max_states",
    ])
    def test_edit_executes_the_check_again(self, edit, tmp_path):
        cache_dir = tmp_path / "proof-cache"
        check = "P:WholeProgramRefinement"
        assert check in self._executed(self.SOURCE, cache_dir)
        assert self._executed(self.SOURCE, cache_dir) == []
        source, max_states = self.SOURCE, 200_000
        if edit == "initializer":
            source = source.replace("count: uint32 := 1",
                                    "count: uint32 := 0", 1)
        elif edit == "relation":
            source = source.replace("low_count <= high_count",
                                    "low_count == high_count")
        else:
            max_states = 100_000
        assert (source, max_states) != (self.SOURCE, 200_000)
        assert check in self._executed(source, cache_dir, max_states)


class TestCacheEviction:
    """Byte cap + LRU eviction (``--cache-max-bytes``)."""

    def _key(self, i):
        return lemma_job_key(Lemma(f"L{i}", "s", ["b"]), "pf")

    def test_unbounded_by_default(self, tmp_path):
        cache = ProofCache(tmp_path / "c")
        for i in range(50):
            cache.put(self._key(i), Verdict("proved"))
        assert len(cache) == 50
        assert cache.evictions == 0

    def test_cap_evicts_down_to_hysteresis(self, tmp_path):
        cache = ProofCache(tmp_path / "c")
        cache.put(self._key(0), Verdict("proved"))
        entry_size = cache.total_bytes()
        assert entry_size > 0

        capped = ProofCache(tmp_path / "c2", max_bytes=entry_size * 10)
        for i in range(50):
            capped.put(self._key(i), Verdict("proved"))
        assert capped.total_bytes() <= entry_size * 10
        # Hysteresis: eviction overshoots to ~90% of the cap so every
        # store does not re-trigger a directory walk.
        assert capped.evictions > 0
        assert capped.evicted_bytes == capped.evictions * entry_size
        assert len(capped) < 50

    def test_eviction_is_least_recently_used(self, tmp_path):
        import os as _os

        cache = ProofCache(tmp_path / "c", max_bytes=None)
        keys = [self._key(i) for i in range(4)]
        for age, key in enumerate(keys):
            cache.put(key, Verdict("proved"))
            # Millisecond-resolution filesystems can't order four puts
            # in one tick; set mtimes explicitly (oldest first).
            _os.utime(cache._path(key), (1000 + age, 1000 + age))
        # Touch the oldest entry: a hit refreshes recency.
        assert cache.get(keys[0]) is not None
        entry_size = cache.total_bytes() // 4
        cache.max_bytes = entry_size * 3  # forces eviction on next put
        cache.put(self._key(99), Verdict("proved"))
        assert cache.get(keys[0]) is not None   # refreshed, survives
        assert cache.get(keys[1]) is None       # oldest mtime, evicted
        assert cache.evictions >= 1

    def test_evicted_entry_recomputes(self, tmp_path):
        counter = []
        cache_dir = tmp_path / "c"
        farm = VerificationFarm(FarmConfig(cache_dir=cache_dir))
        script, _ = make_script(counter=counter)
        farm.discharge(lemma_jobs(script, "pf"))
        assert counter == [1]
        entry_size = farm.cache.total_bytes()

        # A one-entry cap: storing anything else evicts the verdict.
        capped = VerificationFarm(FarmConfig(
            cache_dir=cache_dir, cache_max_bytes=entry_size,
        ))
        other, _ = make_script("assert y > 1;", counter)
        capped.discharge(lemma_jobs(other, "pf"))
        assert counter == [1, 1]
        assert capped.cache.evictions >= 1

        # The original obligation is simply recomputed on its miss.
        again, _ = make_script(counter=counter)
        VerificationFarm(FarmConfig(cache_dir=cache_dir)).discharge(
            lemma_jobs(again, "pf")
        )
        assert len(counter) == 3
        assert again.lemmas[0].verdict.ok

    def test_farm_report_shows_evictions(self, tmp_path):
        farm = VerificationFarm(FarmConfig(
            cache_dir=tmp_path / "c", cache_max_bytes=1,
        ))
        script, _ = make_script()
        farm.discharge(lemma_jobs(script, "pf"))
        assert farm.cache.evictions >= 1
        report = "\n".join(farm.report_lines())
        assert "evicted" in report
        summary = farm.summary()
        assert summary.cache_evictions >= 1
        assert any("evicted" in line
                   for line in summary.report_lines())


class TestSharedCacheConcurrency:
    """Two farm instances over one cache directory at once: the
    multi-tenant shape the serve daemon relies on."""

    def _chain_jobs(self, counter, n=12):
        scripts = []
        jobs = []
        for i in range(n):
            script = ProofScript(f"P{i}", "weakening", "Low", "High")

            def obligation(i=i):
                counter.append(i)
                return proved()

            script.add(Lemma(f"L{i}", f"claim {i}", [f"assert {i};"],
                             obligation=obligation))
            scripts.append(script)
            jobs.append(lemma_jobs(script, "pf"))
        return scripts, jobs

    def test_concurrent_farms_no_torn_reads(self, tmp_path):
        import threading

        counter = []
        scripts_a, jobs_a = self._chain_jobs(counter)
        scripts_b, jobs_b = self._chain_jobs(counter)
        farm_a = VerificationFarm(FarmConfig(cache_dir=tmp_path / "c"))
        farm_b = VerificationFarm(FarmConfig(cache_dir=tmp_path / "c"))

        def run(farm, batches):
            for batch in batches:
                farm.discharge(batch)

        threads = [
            threading.Thread(target=run, args=(farm_a, jobs_a)),
            threading.Thread(target=run, args=(farm_b, jobs_b)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # Every lemma settled PROVED in both farms; a torn read would
        # have quarantined (miss, recompute) — never a wrong verdict.
        for script in scripts_a + scripts_b:
            assert script.lemmas[0].verdict.ok
        # At most one obligation run per distinct lemma *per farm*; the
        # overlap (second farm hitting the first's stores) is timing-
        # dependent, but the total can never exceed one run each.
        assert len(counter) <= 24
        assert farm_a.cache.quarantined == 0
        assert farm_b.cache.quarantined == 0

        # A third, sequential farm discharges everything by file read.
        scripts_c, jobs_c = self._chain_jobs(counter)
        before = len(counter)
        farm_c = VerificationFarm(FarmConfig(cache_dir=tmp_path / "c"))
        for batch in jobs_c:
            farm_c.discharge(batch)
        assert len(counter) == before
        assert farm_c.summary().cache_hits == 12

    def test_quarantine_self_heals_under_contention(self, tmp_path):
        import threading

        counter = []
        cache_dir = tmp_path / "c"
        seed_script, _ = make_script(counter=counter)
        seeder = VerificationFarm(FarmConfig(cache_dir=cache_dir))
        seeder.discharge(lemma_jobs(seed_script, "pf"))
        [key] = [j.key for j in lemma_jobs(seed_script, "pf")]
        # Corrupt the stored entry on disk (crashed-writer torso).
        seeder.cache._path(key).write_bytes(b"torn garbage")

        farms = [
            VerificationFarm(FarmConfig(cache_dir=cache_dir))
            for _ in range(2)
        ]
        scripts = []

        def run(farm):
            script, _ = make_script(counter=counter)
            scripts.append(script)
            farm.discharge(lemma_jobs(script, "pf"))

        threads = [threading.Thread(target=run, args=(f,))
                   for f in farms]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # Both contenders settled correctly despite the bad entry:
        # whoever read it first quarantined and recomputed; the other
        # either recomputed too or hit the healed re-store.
        for script in scripts:
            assert script.lemmas[0].verdict.ok
        assert sum(f.cache.quarantined for f in farms) >= 1
        # The cache healed: a fresh farm discharges by file read.
        healed_script, _ = make_script(counter=counter)
        healed = VerificationFarm(FarmConfig(cache_dir=cache_dir))
        before = len(counter)
        healed.discharge(lemma_jobs(healed_script, "pf"))
        assert len(counter) == before
        assert healed_script.lemmas[0].verdict.ok


class TestGracefulDrain:
    """request_shutdown(): in-flight obligations finish, queued ones
    short-circuit to UNKNOWN — inconclusive, never cached."""

    def _scripts(self, farm, counter, n=6):
        scripts = []
        jobs = []
        for i in range(n):
            script = ProofScript(f"P{i}", "weakening", "Low", "High")

            def obligation(i=i):
                counter.append(i)
                if i == 1:
                    farm.request_shutdown()
                return proved()

            script.add(Lemma(f"L{i}", f"claim {i}", [f"assert {i};"],
                             obligation=obligation))
            scripts.append(script)
            jobs.extend(lemma_jobs(script, "pf"))
        return scripts, jobs

    def test_drain_short_circuits_queued_jobs(self):
        farm = VerificationFarm()
        counter = []
        scripts, jobs = self._scripts(farm, counter)
        farm.discharge(jobs)
        # Obligation 1 requested the drain mid-run and still finished
        # (in-flight work completes); everything after it never ran.
        assert counter == [0, 1]
        assert scripts[0].lemmas[0].verdict.ok
        assert scripts[1].lemmas[0].verdict.ok
        for script in scripts[2:]:
            verdict = script.lemmas[0].verdict
            assert verdict.inconclusive
            assert not verdict.ok
            assert "cancelled" in str(verdict.counterexample)
        assert farm.summary().jobs == 6
        assert farm.summary().cancelled == 4
        # Only the two obligations that ran count as executed.
        assert farm.summary().executed == 2
        assert len(farm.summary().slowest) == 2
        assert "cancelled by drain request" in "\n".join(
            farm.summary().report_lines()
        )

    def test_drained_verdicts_never_cached(self, tmp_path):
        counter = []
        cache_dir = tmp_path / "c"
        farm = VerificationFarm(FarmConfig(cache_dir=cache_dir))
        scripts, jobs = self._scripts(farm, counter)
        farm.discharge(jobs)
        assert counter == [0, 1]

        # A fresh farm (no drain this time) re-checks exactly the
        # cancelled obligations: the two settled verdicts hit the
        # cache, the four cancelled ones re-run.
        counter3 = []
        fresh = VerificationFarm(FarmConfig(cache_dir=cache_dir))
        scripts3 = []
        batch = []
        for i in range(6):
            script = ProofScript(f"P{i}", "weakening", "Low", "High")

            def obligation(i=i):
                counter3.append(i)
                return proved()

            script.add(Lemma(f"L{i}", f"claim {i}", [f"assert {i};"],
                             obligation=obligation))
            scripts3.append(script)
            batch.extend(lemma_jobs(script, "pf"))
        fresh.discharge(batch)
        assert sorted(counter3) == [2, 3, 4, 5]
        for script in scripts3:
            assert script.lemmas[0].verdict.ok

    def test_drain_stores_only_settled_verdicts(self, tmp_path):
        farm = VerificationFarm(FarmConfig(cache_dir=tmp_path / "c"))
        counter = []
        scripts, jobs = self._scripts(farm, counter)
        farm.discharge(jobs)
        # Only the two settled verdicts were stored; cancelled
        # (inconclusive) obligations must be re-checked on resume.
        assert farm.summary().cache_stores == 2
        assert len(ProofCache(tmp_path / "c")) == 2
