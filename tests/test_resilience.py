"""Resilience suite: deadlines, cache healing and the journal.

The farm runs every obligation on the calling thread, so nothing fails
transiently; what it must survive is a run that outlives its budget and
a store that goes bad.  Per-obligation and whole-chain deadlines yield
inconclusive TIMEOUT verdicts (never refuted, never cached, never
journaled), corrupt cache entries are quarantined and recomputed, and
the journal resumes an interrupted run.  Timeout counts reach the
trace and ``--farm-report``.
"""

import json
import os
import pickle
import threading
import time

import pytest

from repro.errors import InconclusiveCheck, ObligationTimeout
from repro.farm import (
    DEADLINE_EXPIRED,
    JOB_FINISHED,
    JOB_STARTED,
    JOB_TIMEOUT,
    JOURNAL_HIT,
    EventLog,
    FarmConfig,
    Job,
    Journal,
    ProofCache,
    ResilienceConfig,
    ShutdownToken,
    VerificationFarm,
    global_check_job,
    run_jobs,
)
from repro.farm.cache import frame_entry
from repro.farm.workers import _call_with_deadline
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


def _blocking_thunk(entered: threading.Event, release: threading.Event):
    """An obligation that runs until the test releases it, so a short
    deadline expires no matter how the threads are scheduled."""

    def thunk():
        entered.set()
        release.wait(10.0)
        return proved()

    return thunk


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
                 resilience=ResilienceConfig(obligation_timeout=0.05),
                 journal=journal)
        assert time.monotonic() - started < 4.0  # did not wait out sleep
        assert sink[0].status == TIMEOUT and sink[0].inconclusive
        assert sink[1].status == PROVED
        assert len(events.events(JOB_TIMEOUT)) == 1
        # Inconclusive verdicts must be pinned nowhere.
        assert cache.get(jobs[0].key) is None
        assert journal.lookup(jobs[0].key) is None
        assert cache.get(jobs[1].key).status == PROVED

    @pytest.mark.flaky
    def test_chain_deadline_short_circuits_queue(self):
        sink, events = {}, EventLog()

        def slow():
            time.sleep(0.2)
            return proved()

        jobs = [_job(i, thunk=slow, sink=sink) for i in range(4)]
        started = time.monotonic()
        run_jobs(jobs, events=events,
                 resilience=ResilienceConfig(chain_deadline=0.25))
        assert time.monotonic() - started < 2.0
        assert sink[0].status == PROVED  # ran within the budget
        assert sink[3].status == TIMEOUT  # budget gone before it ran
        statuses = [sink[i].status for i in range(4)]
        assert statuses.count(TIMEOUT) >= 2
        assert REFUTED not in statuses  # never misreported as refuted
        assert len(events.events(DEADLINE_EXPIRED)) == 1

    def test_timeouts_are_not_retried(self):
        calls, sink, events = [], {}, EventLog()
        entered, release = threading.Event(), threading.Event()
        blocking = _blocking_thunk(entered, release)

        def thunk():
            calls.append(1)
            return blocking()

        try:
            run_jobs([_job(0, thunk=thunk, sink=sink)], events=events,
                     resilience=ResilienceConfig(obligation_timeout=0.05))
            assert entered.wait(5.0)
        finally:
            release.set()
        assert sink[0].status == TIMEOUT
        # One start, one call: a timed-out obligation is abandoned,
        # never run again.
        assert calls == [1]
        assert len(events.events(JOB_STARTED)) == 1
        assert len(events.events(JOB_TIMEOUT)) == 1

    def test_obligation_past_its_deadline_counts_as_executed(self):
        entered, release = threading.Event(), threading.Event()
        farm = VerificationFarm(FarmConfig(obligation_timeout=0.05))
        sink = {}
        try:
            farm.discharge([
                _job(0, thunk=_blocking_thunk(entered, release),
                     sink=sink),
                _job(1, sink=sink),
            ])
        finally:
            release.set()
        assert [sink[0].status, sink[1].status] == [TIMEOUT, PROVED]
        # Unlike a job the chain budget or a drain cut short, this one
        # ran: it is executed, and it is the slowest.
        summary = farm.summary()
        assert summary.executed == 2
        assert summary.timeouts == 1
        assert summary.slowest[0][0] == "proof:lemma0"

    def test_chain_deadline_spans_batches(self):
        farm = VerificationFarm(FarmConfig(chain_deadline=0.0))
        sink = {}
        farm.discharge([_job(0, sink=sink)])
        armed_at = farm.resilience.deadline_at
        assert armed_at is not None
        farm.discharge([_job(1, sink=sink), _job(2, sink=sink)])
        # The clock is armed once, at the first discharge; later
        # batches inherit the spent budget and report it only once.
        assert farm.resilience.deadline_at == armed_at
        assert [sink[i].status for i in range(3)] == [TIMEOUT] * 3
        assert len(farm.events.events(DEADLINE_EXPIRED)) == 1
        assert farm.summary().timeouts == 3
        assert farm.summary().executed == 0

    def test_global_check_timeout_is_an_inconclusive_check(self):
        results = []
        job = global_check_job("P", _ok_thunk, results.append)
        run_jobs([job], resilience=ResilienceConfig(chain_deadline=0.0))
        # Global checks report errors, not verdicts: a spent budget
        # surfaces as InconclusiveCheck, which the engine reports as
        # inconclusive rather than failed.
        assert len(results) == 1
        assert isinstance(results[0], InconclusiveCheck)
        assert "chain deadline budget (0s) exhausted" in str(results[0])

    def test_drained_global_check_is_an_inconclusive_check(self):
        results, calls = [], []
        token = ShutdownToken()
        token.request()

        def thunk():
            calls.append(1)
            return proved()

        job = global_check_job("P", thunk, results.append)
        run_jobs([job], resilience=ResilienceConfig(shutdown=token))
        assert calls == []
        assert isinstance(results[0], InconclusiveCheck)
        assert "cancelled" in str(results[0])

    def test_non_armada_errors_propagate(self):
        def broken():
            raise RuntimeError("bug in a strategy")

        # A programming error is neither a verdict nor inconclusive.
        with pytest.raises(RuntimeError, match="bug in a strategy"):
            run_jobs([_job(0, thunk=broken)],
                     resilience=ResilienceConfig(obligation_timeout=5.0))


class TestDeadlinePolicy:
    def test_default_policy_has_no_deadlines(self):
        res = ResilienceConfig()
        res.arm()
        assert res.deadline_at is None
        assert res.attempt_budget() is None
        assert not res.chain_expired()
        assert not res.shutdown_requested()
        assert res.describe() == "no deadlines"

    def test_budget_is_the_tighter_deadline(self):
        obligation_bound = ResilienceConfig(obligation_timeout=5.0,
                                            chain_deadline=600.0)
        obligation_bound.arm()
        assert obligation_bound.attempt_budget() == 5.0
        assert obligation_bound.describe() == "obligation<=5s, chain<=600s"
        chain_bound = ResilienceConfig(obligation_timeout=600.0,
                                       chain_deadline=5.0)
        chain_bound.arm()
        assert 0.0 < chain_bound.attempt_budget() <= 5.0
        spent = ResilienceConfig(chain_deadline=0.0)
        spent.arm()
        assert spent.attempt_budget() == 0.0
        assert spent.chain_expired()

    def test_arming_is_idempotent_and_expiry_reported_once(self):
        res = ResilienceConfig(chain_deadline=600.0)
        res.arm()
        armed_at = res.deadline_at
        res.arm()
        assert res.deadline_at == armed_at
        assert [res.report_expiry_once() for _ in range(3)] == [
            True, False, False,
        ]


class TestCallWithDeadline:
    def test_unbounded_call_runs_on_the_calling_thread(self):
        caller = threading.current_thread()
        assert _call_with_deadline(threading.current_thread, None) \
            is caller

    def test_spent_budget_never_starts_the_obligation(self):
        calls = []
        with pytest.raises(ObligationTimeout):
            _call_with_deadline(lambda: calls.append(1), 0.0)
        assert calls == []

    def test_errors_cross_the_helper_thread(self):
        def broken():
            raise ValueError("raised on the helper")

        with pytest.raises(ValueError, match="raised on the helper"):
            _call_with_deadline(broken, 5.0)
        assert _call_with_deadline(lambda: 42, 5.0) == 42


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

    def test_framed_foreign_payload_is_quarantined(self, tmp_path):
        # A frame that checks out around a payload that is not a
        # verdict (format drift) is quarantined, never served.
        seen = []
        cache = self._cache(tmp_path, quarantined=seen)
        key = "0a" + "3" * 62
        path = cache.entry_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(frame_entry(pickle.dumps({"status": PROVED})))
        assert cache.get(key) is None
        assert seen == [(key, "framed payload is not a Verdict")]
        assert not path.exists()
        assert cache.put(key, proved())
        assert cache.get(key).status == PROVED

    def test_corrupt_entry_heals_on_next_run(self, tmp_path):
        farm = VerificationFarm(FarmConfig(cache_dir=tmp_path / "cache"))
        sink = {}
        farm.discharge([_job(0, sink=sink)])
        assert sink[0].status == PROVED
        assert farm.summary().cache_stores == 1
        # Truncate the stored entry between runs, as a crash mid-write
        # or a full disk would.
        path = farm.cache.entry_path("key-0")
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        # Second farm: the damaged entry is healed, not served.
        farm2 = VerificationFarm(FarmConfig(cache_dir=tmp_path / "cache"))
        sink2 = {}
        farm2.discharge([_job(0, sink=sink2)])
        assert sink2[0].status == PROVED
        assert farm2.cache.quarantined == 1
        assert farm2.summary().cache_quarantined == 1
        assert farm2.summary().executed == 1
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

    def test_refuted_verdicts_round_trip_once(self, tmp_path):
        path = tmp_path / "run.jsonl"
        journal = Journal(path)
        refuted = Verdict(REFUTED, {"witness": "x=1"})
        journal.record("r", refuted)
        journal.record("r", refuted)  # already settled: not re-appended
        journal.close()
        assert len(path.read_text().splitlines()) == 1
        resumed = Journal(path)
        replayed = resumed.lookup("r")
        resumed.close()
        # The counterexample survives as text.
        assert replayed.status == REFUTED and not replayed.ok
        assert replayed.counterexample == {
            "journal": json.dumps({"witness": "x=1"}),
        }
        assert resumed.replayed == 1

    def test_malformed_records_are_skipped(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text("\n".join([
            json.dumps({"format": "armada-journal/1"}),  # header
            json.dumps(["not", "a", "record"]),
            json.dumps({"key": 7, "status": PROVED}),
            json.dumps({"key": "t", "status": TIMEOUT}),
            json.dumps({"key": "p", "status": PROVED}),
            "",
        ]))
        journal = Journal(path)
        journal.close()
        assert journal.corrupt_lines == 3
        assert len(journal) == 1
        assert journal.lookup("t") is None
        assert journal.lookup("p").status == PROVED


# ----------------------------------------------------------------------
# observability: timeouts are visible in traces and reports


class TestObservability:
    def test_timeout_counter_reaches_the_trace(self, tmp_path):
        from repro.obs import OBS

        trace = tmp_path / "trace.jsonl"
        sink = {}
        OBS.enable(trace)
        try:
            run_jobs([_job(0, sink=sink), _job(1, sink=sink)],
                     resilience=ResilienceConfig(chain_deadline=0.0))
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
        assert counters.get("farm.timeouts", 0) == 2
        # Neither obligation started, so neither left an uncached
        # obligation span.
        assert not [
            r for r in records
            if r["type"] == "span"
            and r.get("attrs", {}).get("cached") is False
        ]

    def test_farm_report_counts_timeouts(self):
        farm = VerificationFarm(FarmConfig(chain_deadline=0.0))
        sink = {}
        farm.discharge([_job(0, sink=sink), _job(1, sink=sink)])
        assert [sink[0].status, sink[1].status] == [TIMEOUT, TIMEOUT]
        report = "\n".join(farm.report_lines())
        assert "verification farm [sequential]" in report
        assert "timeouts: 2  cache entries quarantined: 0" in report
        assert farm.summary_line().endswith("[sequential]")
        assert farm.summary().executed == 0


# ----------------------------------------------------------------------
# end to end: the TSP chain under a spent deadline


class TestEndToEndInconclusive:
    def _source(self):
        with open(EXAMPLE, encoding="utf-8") as handle:
            return handle.read()

    def test_chain_deadline_makes_chain_inconclusive(self):
        farm = VerificationFarm(FarmConfig(chain_deadline=0.0))
        outcome = verify_source(self._source(), farm=farm)
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
        summary = farm.summary()
        assert summary.jobs > 0
        assert summary.timeouts == summary.jobs
        assert summary.executed == 0
        assert farm.events.events(JOB_FINISHED) == []
