"""Resilience suite: deadlines, cache healing and resuming from the
cache.

The farm runs every obligation on the calling thread, so nothing fails
transiently; what it must survive is a run that outlives its budget, a
run that dies, and a store that goes bad.  Per-obligation and
whole-chain deadlines yield inconclusive TIMEOUT verdicts (never
refuted, never cached), corrupt cache entries are quarantined and
recomputed, and the cache keeps every verdict a dying run settled, so
the next run resumes from it.  Timeout counts reach the trace and
``--farm-report``.
"""

import json
import os
import pickle
import threading
import time

import pytest

from repro.errors import InconclusiveCheck, ObligationTimeout
from repro.farm import (
    FarmConfig,
    FarmSummary,
    Job,
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
        sink, summary = {}, FarmSummary()
        cache = ProofCache(tmp_path / "cache")

        def slow():
            time.sleep(5.0)
            return proved()

        jobs = [_job(0, thunk=slow, sink=sink), _job(1, sink=sink)]
        started = time.monotonic()
        run_jobs(jobs, cache=cache, summary=summary,
                 resilience=ResilienceConfig(obligation_timeout=0.05))
        assert time.monotonic() - started < 4.0  # did not wait out sleep
        assert sink[0].status == TIMEOUT and sink[0].inconclusive
        assert sink[1].status == PROVED
        assert summary.timeouts == 1
        # Inconclusive verdicts must never be pinned.
        assert cache.get(jobs[0].key) is None
        assert summary.cache_stores == 1
        assert cache.get(jobs[1].key).status == PROVED

    @pytest.mark.flaky
    def test_chain_deadline_short_circuits_queue(self):
        sink, summary = {}, FarmSummary()

        def slow():
            time.sleep(0.2)
            return proved()

        jobs = [_job(i, thunk=slow, sink=sink) for i in range(4)]
        started = time.monotonic()
        run_jobs(jobs, summary=summary,
                 resilience=ResilienceConfig(chain_deadline=0.25))
        assert time.monotonic() - started < 2.0
        assert sink[0].status == PROVED  # ran within the budget
        assert sink[3].status == TIMEOUT  # budget gone before it ran
        statuses = [sink[i].status for i in range(4)]
        assert statuses.count(TIMEOUT) >= 2
        assert REFUTED not in statuses  # never misreported as refuted
        assert summary.timeouts == statuses.count(TIMEOUT)

    def test_timeouts_are_not_retried(self):
        calls, sink, summary = [], {}, FarmSummary()
        entered, release = threading.Event(), threading.Event()
        blocking = _blocking_thunk(entered, release)

        def thunk():
            calls.append(1)
            return blocking()

        try:
            run_jobs([_job(0, thunk=thunk, sink=sink)], summary=summary,
                     resilience=ResilienceConfig(obligation_timeout=0.05))
            assert entered.wait(5.0)
        finally:
            release.set()
        assert sink[0].status == TIMEOUT
        # One run, one call: a timed-out obligation is abandoned,
        # never run again.
        assert calls == [1]
        assert summary.executed == 1
        assert summary.timeouts == 1

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
        # batches inherit the spent budget.
        assert farm.resilience.deadline_at == armed_at
        assert [sink[i].status for i in range(3)] == [TIMEOUT] * 3
        assert farm.summary().jobs == 3
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

    def test_arming_is_idempotent(self):
        res = ResilienceConfig(chain_deadline=600.0)
        res.arm()
        armed_at = res.deadline_at
        res.arm()
        assert res.deadline_at == armed_at


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
    def _cache(self, tmp_path):
        return ProofCache(tmp_path / "cache")

    def test_hand_truncated_entry_is_quarantined_and_recomputed(
        self, tmp_path
    ):
        # Regression for the framing fix: pre-framing caches died on
        # truncated pickles; now they must heal.
        cache = self._cache(tmp_path)
        assert cache.put("ab" + "0" * 62, proved())
        key = "ab" + "0" * 62
        path = cache.entry_path(key)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 3])
        assert cache.get(key) is None  # a miss, not a traceback
        assert cache.quarantined == 1
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
        cache = self._cache(tmp_path)
        key = "0a" + "3" * 62
        path = cache.entry_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(frame_entry(pickle.dumps({"status": PROVED})))
        assert cache.get(key) is None
        assert cache.quarantined == 1
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
# resuming from the cache


class TestResumeFromCache:
    def test_rerun_serves_settled_verdicts_from_the_cache(self, tmp_path):
        calls = []

        def thunk():
            calls.append(1)
            return proved()

        def run():
            summary, sink = FarmSummary(), {}
            run_jobs([_job(0, thunk=thunk, sink=sink)],
                     cache=ProofCache(tmp_path / "cache"),
                     summary=summary)
            return summary, sink

        first, _ = run()
        assert calls == [1] and first.cache_stores == 1
        second, sink = run()
        assert calls == [1]  # not re-executed
        assert sink[0].status == PROVED
        assert (second.cache_hits, second.executed) == (1, 0)

    def test_settled_verdicts_survive_a_batch_that_dies(self, tmp_path):
        """Each verdict is cached as its obligation returns, not after
        the batch: a crash keeps what was settled."""
        def broken():
            raise RuntimeError("run died mid-batch")

        cache = ProofCache(tmp_path / "cache")
        summary = FarmSummary()
        jobs = [_job(0), _job(1), _job(2, thunk=broken)]
        with pytest.raises(RuntimeError, match="mid-batch"):
            run_jobs(jobs, cache=cache, summary=summary)
        assert len(cache) == 2
        assert summary.cache_stores == 2

    def test_refuted_verdicts_resume_with_their_counterexample(
        self, tmp_path
    ):
        refuted = Verdict(REFUTED, {"witness": "x=1"})
        cache = ProofCache(tmp_path / "cache")
        assert cache.put("r", refuted)
        replayed = ProofCache(tmp_path / "cache").get("r")
        assert replayed.status == REFUTED and not replayed.ok
        assert replayed.counterexample == {"witness": "x=1"}


class TestFailedStores:
    def test_unwritable_cache_counts_failed_stores(self, tmp_path):
        not_a_directory = tmp_path / "file"
        not_a_directory.write_text("a regular file\n")
        farm = VerificationFarm(FarmConfig(cache_dir=not_a_directory))
        sink = {}
        farm.discharge([_job(0, sink=sink), _job(1, sink=sink)])
        # The verdicts still settle; only the store fails.
        assert [sink[0].status, sink[1].status] == [PROVED, PROVED]
        assert farm.cache.failed_stores == 2
        assert farm.cache.stores == 0
        assert farm.summary().cache_stores == 0
        assert not_a_directory.read_text() == "a regular file\n"
        report = "\n".join(farm.report_lines())
        assert "0 stores, 2 failed stores," in report

    def test_inconclusive_and_written_verdicts_are_not_failures(
        self, tmp_path
    ):
        cache = ProofCache(tmp_path / "cache")
        assert not cache.put("t", Verdict(TIMEOUT))
        assert cache.put("p", Verdict(PROVED))
        assert (cache.stores, cache.failed_stores) == (1, 0)


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
        assert summary.slowest == []
