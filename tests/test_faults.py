"""Chaos suite: the verification farm must survive its fault model.

Injected faults (``repro.faults``) drive every resilience path the farm
claims to have: deterministic retries with backoff, per-obligation and
whole-chain deadlines yielding inconclusive TIMEOUT verdicts, cache
self-healing on truncated/garbage entries, and journal-based resume.
Each scenario asserts the headline guarantee — the surviving run
reports the same verdicts a fault-free run would, except for
obligations that were deliberately timed out — plus the observability
contract (retry/timeout/fault counts in events and traces).
"""

import json
import os
import pickle
import time

import pytest

from repro.errors import FaultPlanError
from repro.farm import (
    DEADLINE_EXPIRED,
    FAULT_INJECTED,
    JOB_ABANDONED,
    JOB_RETRY,
    JOB_TIMEOUT,
    JOURNAL_HIT,
    EventLog,
    FarmConfig,
    Job,
    Journal,
    ProofCache,
    ResilienceConfig,
    VerificationFarm,
    run_jobs,
)
from repro.faults import FaultPlan, FaultRule, load_fault_plan
from repro.proofs.artifacts import proved
from repro.proofs.engine import verify_source
from repro.verifier.prover import (
    PROVED,
    REFUTED,
    TIMEOUT,
    UNKNOWN,
    Verdict,
)

EXAMPLE = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "examples", "running_example.arm",
)


def _ok_thunk():
    """An obligation that always proves."""
    return proved()


def _job(index: int, thunk=None, sink=None):
    def apply(result, index=index):
        if sink is not None:
            sink[index] = result

    return Job(
        key=f"key-{index}", label=f"proof:lemma{index}",
        thunk=thunk or _ok_thunk, apply=apply,
    )


def _fast_retries(**kwargs) -> ResilienceConfig:
    kwargs.setdefault("retry_base_delay", 0.001)
    kwargs.setdefault("retry_max_delay", 0.01)
    return ResilienceConfig(**kwargs)


# ----------------------------------------------------------------------
# fault plans


class TestFaultPlan:
    def test_round_trip_and_defaulted_phase(self):
        plan = FaultPlan.from_dict({
            "seed": 3,
            "faults": [
                {"action": "raise", "index": 1},
                {"action": "corrupt_cache_entry", "label": "lemma"},
            ],
        })
        assert plan.seed == 3
        assert plan.rules[0].phase == "execute"
        assert plan.rules[1].phase == "cache_store"
        assert FaultPlan.from_dict(plan.to_dict()).rules == plan.rules

    def test_addressing(self):
        rule = FaultRule("raise", index=2, label="Owner", attempt=1)
        assert rule.matches("execute", 2, "p:OwnerLemma", 1)
        assert not rule.matches("execute", 2, "p:OwnerLemma", 0)
        assert not rule.matches("execute", 3, "p:OwnerLemma", 1)
        assert not rule.matches("execute", 2, "p:Other", 1)
        assert not rule.matches("cache_store", 2, "p:OwnerLemma", 1)
        every = FaultRule("raise", index=0, attempt=None)
        assert every.matches("execute", 0, "x", 0)
        assert every.matches("execute", 0, "x", 7)

    def test_rejects_unknown_action_phase_and_keys(self):
        with pytest.raises(FaultPlanError, match="unknown fault action"):
            FaultRule("explode", index=0)
        with pytest.raises(FaultPlanError, match="unknown fault action"):
            FaultRule("crash_worker", index=0)
        with pytest.raises(FaultPlanError, match="unknown fault phase"):
            FaultRule("raise", index=0, phase="teardown")
        with pytest.raises(FaultPlanError, match="must be addressable"):
            FaultRule("raise")
        with pytest.raises(FaultPlanError, match="unknown keys"):
            FaultPlan.from_dict(
                {"faults": [{"action": "raise", "index": 0, "when": 1}]}
            )

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({
            "seed": 11,
            "faults": [{"action": "delay", "index": 0,
                        "seconds": 0.5}],
        }))
        plan = load_fault_plan(path)
        assert plan.seed == 11 and len(plan) == 1
        path.write_text("{not json")
        with pytest.raises(FaultPlanError, match="not valid JSON"):
            load_fault_plan(path)
        with pytest.raises(FaultPlanError, match="cannot read"):
            load_fault_plan(tmp_path / "missing.json")

    def test_plan_is_picklable(self):
        plan = FaultPlan.from_dict(
            {"faults": [{"action": "raise", "index": 0}]}
        )
        assert pickle.loads(pickle.dumps(plan)) == plan


# ----------------------------------------------------------------------
# deadlines → inconclusive TIMEOUT verdicts


class TestDeadlines:
    @pytest.mark.flaky
    def test_obligation_timeout_yields_timeout_verdict(self, tmp_path):
        sink, events = {}, EventLog()
        cache = ProofCache(tmp_path / "cache")
        journal = Journal(tmp_path / "journal.jsonl")

        def slow():
            time.sleep(5.0)
            return proved()

        jobs = [_job(0, thunk=slow, sink=sink), _job(1, sink=sink)]
        started = time.monotonic()
        run_jobs(jobs, cache=cache, events=events,
                 resilience=_fast_retries(obligation_timeout=0.05),
                 journal=journal)
        assert time.monotonic() - started < 4.0  # did not wait out sleep
        assert sink[0].status == TIMEOUT and sink[0].inconclusive
        assert sink[1].status == PROVED
        assert len(events.events(JOB_TIMEOUT)) == 1
        # Inconclusive verdicts must be pinned nowhere.
        assert cache.get(jobs[0].key) is None
        assert journal.lookup(jobs[0].key) is None
        assert cache.get(jobs[1].key).status == PROVED

    def test_timeouts_are_not_retried(self):
        sink, events = {}, EventLog()
        plan = FaultPlan.from_dict(
            {"faults": [{"action": "timeout", "index": 0,
                         "seconds": 9.9}]}
        )
        run_jobs([_job(0, sink=sink)], events=events,
                 resilience=_fast_retries(faults=plan))
        assert sink[0].status == TIMEOUT
        assert events.events(JOB_RETRY) == []

    @pytest.mark.flaky
    def test_chain_deadline_short_circuits_queue(self):
        sink, events = {}, EventLog()

        def slow():
            time.sleep(0.2)
            return proved()

        jobs = [_job(i, thunk=slow, sink=sink) for i in range(4)]
        started = time.monotonic()
        run_jobs(jobs, events=events,
                 resilience=_fast_retries(chain_deadline=0.25))
        assert time.monotonic() - started < 2.0
        assert sink[0].status == PROVED  # ran within the budget
        assert sink[3].status == TIMEOUT  # budget gone before it ran
        statuses = [sink[i].status for i in range(4)]
        assert statuses.count(TIMEOUT) >= 2
        assert REFUTED not in statuses  # never misreported as refuted
        assert len(events.events(DEADLINE_EXPIRED)) == 1


# ----------------------------------------------------------------------
# retries with deterministic backoff


class TestRetries:
    def test_transient_fault_retried_then_succeeds(self):
        sink, events = {}, EventLog()
        plan = FaultPlan.from_dict({"faults": [
            {"action": "raise", "index": 0, "attempt": 0,
             "message": "flaky switch"},
        ]})
        jobs = [_job(i, sink=sink) for i in range(3)]
        run_jobs(jobs, events=events,
                 resilience=_fast_retries(faults=plan))
        # The chaos run's verdicts equal a fault-free run's verdicts.
        assert [sink[i].status for i in range(3)] == [PROVED] * 3
        retries = events.events(JOB_RETRY)
        assert len(retries) == 1
        assert "flaky switch" in retries[0].detail
        assert jobs[0].attempts == 2 and jobs[1].attempts == 1
        assert jobs[0].faults_hit == ["raise"]
        assert len(events.events(FAULT_INJECTED)) == 1

    def test_retry_exhaustion_goes_unknown_not_refuted(self):
        sink, events = {}, EventLog()
        plan = FaultPlan.from_dict({"faults": [
            {"action": "raise", "index": 0, "attempt": None},
        ]})
        run_jobs([_job(0, sink=sink)], events=events,
                 resilience=_fast_retries(max_retries=2, faults=plan))
        assert sink[0].status == UNKNOWN and sink[0].inconclusive
        assert len(events.events(JOB_RETRY)) == 2
        assert len(events.events(JOB_ABANDONED)) == 1

    def test_backoff_is_deterministic_and_capped(self):
        res = ResilienceConfig(retry_base_delay=0.05,
                               retry_max_delay=0.4,
                               faults=FaultPlan(seed=9))
        delays = [res.backoff_seconds("k", n) for n in (1, 2, 3, 9)]
        again = [res.backoff_seconds("k", n) for n in (1, 2, 3, 9)]
        assert delays == again  # same seed+key+attempt → same sleep
        assert all(d > 0 for d in delays)
        assert delays[-1] <= 0.4 * 2  # cap + at most 100% jitter
        other = ResilienceConfig(retry_base_delay=0.05,
                                 retry_max_delay=0.4,
                                 faults=FaultPlan(seed=10))
        assert other.backoff_seconds("k", 1) != delays[0]


# ----------------------------------------------------------------------
# cache self-healing


class TestCacheSelfHealing:
    def _cache(self, tmp_path, quarantined=None):
        return ProofCache(
            tmp_path / "cache",
            on_quarantine=(
                (lambda key, reason: quarantined.append((key, reason)))
                if quarantined is not None else None
            ),
        )

    def test_hand_truncated_entry_is_quarantined_and_recomputed(
        self, tmp_path
    ):
        # Regression for the framing fix: pre-framing caches died on
        # truncated pickles; now they must heal.
        seen = []
        cache = self._cache(tmp_path, quarantined=seen)
        assert cache.put("ab" + "0" * 62, proved())
        key = "ab" + "0" * 62
        path = cache.entry_path(key)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 3])
        assert cache.get(key) is None  # a miss, not a traceback
        assert cache.quarantined == 1 and len(seen) == 1
        assert not path.exists()
        quarantine = list((tmp_path / "cache" / "quarantine").iterdir())
        assert len(quarantine) == 1
        # The slot is clean again: recompute, re-store, re-read.
        assert cache.put(key, proved())
        assert cache.get(key).status == PROVED

    @pytest.mark.parametrize("payload", [
        b"", b"garbage", b"ARMV\x02\n" + b"\x00" * 10,
        pickle.dumps(Verdict(PROVED)),  # unframed legacy entry
    ])
    def test_bad_entries_never_traceback(self, tmp_path, payload):
        cache = self._cache(tmp_path)
        key = "cd" + "1" * 62
        path = cache.entry_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(payload)
        assert cache.get(key) is None
        assert cache.quarantined == 1

    def test_checksum_detects_bit_flip(self, tmp_path):
        cache = self._cache(tmp_path)
        key = "ef" + "2" * 62
        cache.put(key, proved())
        path = cache.entry_path(key)
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF
        path.write_bytes(bytes(raw))
        assert cache.get(key) is None
        assert cache.quarantined == 1

    def test_inconclusive_verdicts_are_never_cached(self, tmp_path):
        cache = self._cache(tmp_path)
        assert not cache.put("k", Verdict(TIMEOUT))
        assert not cache.put("k", Verdict(UNKNOWN))
        assert cache.stores == 0

    def test_corrupt_cache_entry_fault_heals_on_next_run(self, tmp_path):
        plan = FaultPlan.from_dict({"faults": [
            {"action": "corrupt_cache_entry", "index": 0},
        ]})
        farm = VerificationFarm(FarmConfig(
            cache_dir=tmp_path / "cache", faults=plan,
        ))
        sink = {}
        farm.discharge([_job(0, sink=sink)])
        assert sink[0].status == PROVED
        assert farm.summary().faults_injected == 1
        # Second farm, no faults: the poisoned entry is healed, not
        # served.
        farm2 = VerificationFarm(FarmConfig(cache_dir=tmp_path / "cache"))
        sink2 = {}
        farm2.discharge([_job(0, sink=sink2)])
        assert sink2[0].status == PROVED
        assert farm2.cache.quarantined == 1
        assert farm2.summary().cache_quarantined == 1
        # Third run: the re-stored entry now serves from cache.
        farm3 = VerificationFarm(FarmConfig(cache_dir=tmp_path / "cache"))
        sink3 = {}
        farm3.discharge([_job(0, sink=sink3)])
        assert farm3.summary().cache_hits == 1


# ----------------------------------------------------------------------
# journal resume


class TestJournal:
    def test_resume_replays_settled_verdicts(self, tmp_path):
        path = tmp_path / "run.jsonl"
        calls = []

        def thunk():
            calls.append(1)
            return proved()

        events = EventLog()
        journal = Journal(path)
        sink = {}
        run_jobs([_job(0, thunk=thunk, sink=sink)], events=events,
                 journal=journal)
        journal.close()
        assert calls == [1] and sink[0].status == PROVED

        resumed = Journal(path)
        events2, sink2 = EventLog(), {}
        run_jobs([_job(0, thunk=thunk, sink=sink2)], events=events2,
                 journal=resumed)
        resumed.close()
        assert calls == [1]  # not re-executed
        assert sink2[0].status == PROVED
        assert len(events2.events(JOURNAL_HIT)) == 1
        assert events2.summary().journal_hits == 1

    def test_torn_lines_self_heal(self, tmp_path):
        path = tmp_path / "run.jsonl"
        journal = Journal(path)
        journal.record("k1", Verdict(PROVED))
        journal.record(
            "k2", Verdict(REFUTED, {"witness": "x=1"})
        )
        journal.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"key": "k3", "status": "pro')  # torn write
        resumed = Journal(path)
        assert resumed.corrupt_lines == 1
        assert resumed.lookup("k1").status == PROVED
        assert resumed.lookup("k2").status == REFUTED
        assert resumed.lookup("k3") is None
        resumed.close()

    def test_only_settled_verdicts_are_journaled(self, tmp_path):
        journal = Journal(tmp_path / "run.jsonl")
        journal.record("t", Verdict(TIMEOUT))
        journal.record("u", Verdict(UNKNOWN))
        journal.record("p", Verdict(PROVED))
        journal.close()
        assert len(Journal(tmp_path / "run.jsonl")) == 1


# ----------------------------------------------------------------------
# observability: chaos is visible in traces


class TestObservability:
    def test_retry_and_timeout_counters_reach_the_trace(self, tmp_path):
        from repro.obs import OBS

        trace = tmp_path / "trace.jsonl"
        plan = FaultPlan.from_dict({"faults": [
            {"action": "raise", "index": 0, "attempt": 0},
            {"action": "timeout", "index": 1, "seconds": 0.1},
        ]})
        sink = {}
        OBS.enable(trace)
        try:
            run_jobs([_job(0, sink=sink), _job(1, sink=sink)],
                     resilience=_fast_retries(faults=plan))
        finally:
            OBS.disable()
        records = [
            json.loads(line)
            for line in trace.read_text().splitlines() if line
        ]
        counters = {}
        for record in records:
            if record["type"] in ("counters", "span"):
                counters.update(record.get("counters", {}))
        assert counters.get("farm.retries", 0) >= 1
        assert counters.get("farm.timeouts", 0) >= 1
        assert counters.get("farm.faults_injected", 0) >= 2
        fault_spans = [
            r for r in records
            if r["type"] == "span" and r.get("attrs", {}).get("fault")
        ]
        assert {s["attrs"]["fault"] for s in fault_spans} == {
            "raise", "timeout",
        }


    def test_farm_report_counts_injected_faults(self):
        plan = FaultPlan.from_dict({"faults": [
            {"action": "raise", "index": 0, "attempt": 0},
        ]})
        farm = VerificationFarm(FarmConfig(
            retry_base_delay=0.001, faults=plan,
        ))
        sink = {}
        farm.discharge([_job(0, sink=sink), _job(1, sink=sink)])
        assert [sink[0].status, sink[1].status] == [PROVED, PROVED]
        report = "\n".join(farm.report_lines())
        assert "verification farm [sequential]" in report
        assert "retries: 1  timeouts: 0  abandoned: 0" in report
        assert "faults injected: 1  cache entries quarantined: 0" in report
        assert farm.summary_line().endswith("[sequential]")


# ----------------------------------------------------------------------
# end to end: the TSP chain under chaos


class TestEndToEndChaos:
    def _source(self):
        with open(EXAMPLE, encoding="utf-8") as handle:
            return handle.read()

    def _verdicts(self, outcome):
        rows = []
        for proof in outcome.outcomes:
            lemmas = tuple(
                (lemma.name,
                 lemma.verdict.status if lemma.verdict else None)
                for lemma in (proof.script.lemmas if proof.script else ())
            )
            rows.append((proof.proof_name, proof.success, lemmas))
        return rows

    def test_chaos_run_matches_fault_free_run(self):
        source = self._source()
        baseline = verify_source(source, farm=VerificationFarm())
        assert baseline.success
        plan = FaultPlan.from_dict({"seed": 7, "faults": [
            {"action": "raise", "index": 0, "attempt": 0},
            {"action": "raise", "index": 2, "attempt": 0},
            {"action": "raise", "index": 3, "attempt": 0},
        ]})
        farm = VerificationFarm(FarmConfig(
            retry_base_delay=0.001, faults=plan,
        ))
        chaos = verify_source(source, farm=farm)
        # Every fault was transient, so the chaos verdicts are the
        # baseline verdicts — bit for bit.
        assert self._verdicts(chaos) == self._verdicts(baseline)
        assert chaos.success and chaos.status == "verified"
        summary = farm.summary()
        assert summary.retries == 3
        assert summary.faults_injected == 3

    def test_injected_timeout_makes_chain_inconclusive(self):
        source = self._source()
        plan = FaultPlan.from_dict({"faults": [
            {"action": "timeout", "index": 4, "seconds": 0.5},
        ]})
        farm = VerificationFarm(FarmConfig(
            retry_base_delay=0.001, faults=plan,
        ))
        outcome = verify_source(source, farm=farm)
        # Not verified — but *inconclusive*, never refuted.
        assert not outcome.success
        assert outcome.inconclusive
        assert outcome.status == "inconclusive"
        statuses = [
            (o.success, o.inconclusive) for o in outcome.outcomes
        ]
        assert (False, True) in statuses  # the timed-out proof
        for proof in outcome.outcomes:
            if not proof.success:
                assert proof.error.startswith("inconclusive:")
        assert farm.summary().timeouts == 1
