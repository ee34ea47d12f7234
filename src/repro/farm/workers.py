"""Discharges farm jobs one at a time, with deadlines, retries, the
proof cache and the resume journal.

``run_jobs`` is the farm's execution core.  It drives the scheduler's
job queue to completion in three phases:

1. **Cache/journal probe** — cacheable jobs are looked up in the proof
   cache (``cache_hit``) and then in the resume journal
   (``journal_hit``); hits skip execution entirely.
2. **Execution** — the remaining jobs run in queue order on the calling
   thread.
3. **Apply + store** — results are written back via each job's ``apply``
   callback *in queue order*; freshly computed settled verdicts are
   stored to the cache and appended to the journal.

Resilience semantics (see :mod:`repro.farm.resilience`):

* An attempt that exceeds its wall-clock budget (per-obligation
  deadline, or what is left of the chain budget) yields a **TIMEOUT
  verdict** — inconclusive, never refuted, never hung.  The runaway
  attempt is abandoned on a daemon thread, which keeps running until
  its obligation returns; obligations are pure functions of their
  fingerprint, so the discarded result is harmless.
* A **transient failure** (:class:`~repro.errors.TransientFault`,
  raised only by an injected fault) is retried with deterministic
  exponential backoff, capped by the retry budget; exhaustion yields an
  UNKNOWN verdict (``job_abandoned``).
* A **drain request** short-circuits every job that has not started to
  an UNKNOWN verdict (``job_cancelled``).

An ``ArmadaError`` inside a wrapped obligation becomes a refuted verdict
carrying the error text (the proof engine's historical behaviour),
except :class:`~repro.errors.StateBudgetExceeded`: a sweep cut short by
its state budget neither proves nor refutes the obligation, so it
becomes UNKNOWN and is never cached.  Any other exception propagates to
the caller.
"""

from __future__ import annotations

import threading
import time

from repro.errors import (
    ArmadaError,
    InconclusiveCheck,
    ObligationTimeout,
    StateBudgetExceeded,
    TransientFault,
)
from repro.farm.events import (
    CACHE_HIT,
    CACHE_STORE,
    DEADLINE_EXPIRED,
    FAULT_INJECTED,
    JOB_ABANDONED,
    JOB_CANCELLED,
    JOB_FINISHED,
    JOB_QUEUED,
    JOB_RETRY,
    JOB_STARTED,
    JOB_TIMEOUT,
    JOURNAL_HIT,
    EventLog,
)
from repro.farm.scheduler import Job
from repro.faults.plan import (
    DELAY,
    PHASE_CACHE_STORE,
    PHASE_EXECUTE,
    RAISE,
    TIMEOUT_FAULT,
    FaultRule,
)
from repro.obs import OBS
from repro.verifier.prover import TIMEOUT, UNKNOWN, Verdict


class _DepthTracker:
    """Counts unfinished jobs so events can record queue depth."""

    def __init__(self, pending: int) -> None:
        self._pending = pending
        self._lock = threading.Lock()

    def depth(self) -> int:
        with self._lock:
            return self._pending

    def finish_one(self) -> int:
        with self._lock:
            self._pending -= 1
            return self._pending


def _wrap_armada_error(error: ArmadaError) -> Verdict:
    if isinstance(error, StateBudgetExceeded):
        return Verdict(UNKNOWN, {"error": str(error)})
    from repro.proofs.artifacts import bool_verdict

    return bool_verdict(False, {"error": str(error)})


def _timeout_verdict(detail: str) -> Verdict:
    return Verdict(TIMEOUT, {"error": detail})


def _abandoned_verdict(attempts: int, reason: str) -> Verdict:
    return Verdict(
        UNKNOWN,
        {"error": f"abandoned after {attempts} attempt(s): {reason}"},
    )


def _cancelled_verdict() -> Verdict:
    """UNKNOWN, not TIMEOUT: the obligation never ran.  Inconclusive
    verdicts are never cached or journaled, so a drained obligation is
    re-checked by the next (resumed) run."""
    return Verdict(
        UNKNOWN,
        {"error": "cancelled: shutdown requested before this "
                  "obligation ran"},
    )


def _inconclusive_result(job: Job, verdict: Verdict):
    """Inconclusive outcome in the shape the job's ``apply`` expects.

    Lemma jobs take Verdicts; global-check jobs (``wrap_errors=False``)
    take strategy results or ArmadaErrors, so their timeout surfaces as
    a validation error instead."""
    if job.wrap_errors:
        return verdict
    detail = (verdict.counterexample or {}).get("error", verdict.status)
    return InconclusiveCheck(str(detail))


def _call_with_deadline(fn, budget: float | None):
    """Run *fn* with a wall-clock budget.

    The attempt runs on a daemon helper thread; if the budget expires
    the helper is abandoned and :class:`ObligationTimeout` is raised in
    the caller.  An abandoned helper keeps running (and holding the GIL
    in turns) until *fn* returns; its result is discarded, which is
    sound because obligations are pure."""
    if budget is None:
        return fn()
    if budget <= 0:
        raise ObligationTimeout(0.0, "chain deadline budget")
    box: dict[str, object] = {}

    def target() -> None:
        try:
            box["result"] = fn()
        except BaseException as error:  # re-raised on the caller side
            box["error"] = error

    helper = threading.Thread(
        target=target, daemon=True, name="armada-obligation"
    )
    helper.start()
    helper.join(budget)
    if helper.is_alive():
        raise ObligationTimeout(budget)
    if "error" in box:
        raise box["error"]  # type: ignore[misc]
    return box["result"]


def _fire_execute_fault(rule: FaultRule) -> None:
    """Apply one injected fault at the execute phase.  ``delay``
    returns (the obligation then runs late); the rest interrupt."""
    if rule.action == DELAY:
        time.sleep(rule.seconds)
        return
    if rule.action == RAISE:
        raise TransientFault(
            rule.message or f"injected transient fault ({rule.describe()})"
        )
    if rule.action == TIMEOUT_FAULT:
        raise ObligationTimeout(rule.seconds, "injected deadline")


def _run_one(job: Job, events: EventLog, tracker: _DepthTracker,
             res=None) -> None:
    """Execute one job, with retries and deadlines."""
    events.emit(JOB_STARTED, job.key, job.label,
                queue_depth=tracker.depth())
    traced = OBS.enabled
    if traced:
        queued_at = job.metadata.get("queued_at")
        if queued_at is not None:
            OBS.observe("farm.queue_wait_seconds",
                        time.perf_counter() - queued_at)
    while True:
        if res is not None and res.shutdown_requested():
            job.result = _inconclusive_result(job, _cancelled_verdict())
            events.emit(JOB_CANCELLED, job.key, job.label,
                        detail="shutdown requested")
            if traced:
                OBS.count("farm.cancelled")
            break
        if res is not None and res.chain_expired():
            detail = (
                f"chain deadline budget ({res.chain_deadline:g}s) "
                "exhausted"
            )
            job.result = _inconclusive_result(
                job, _timeout_verdict(detail)
            )
            if res.report_expiry_once():
                events.emit(DEADLINE_EXPIRED, "", "", detail=detail)
            events.emit(JOB_TIMEOUT, job.key, job.label, detail=detail)
            if traced:
                OBS.count("farm.timeouts")
            break
        rule = None
        if res is not None:
            rule = res.fault(PHASE_EXECUTE, job.index, job.label,
                             job.attempts)
        if rule is not None:
            job.faults_hit.append(rule.action)
            events.emit(FAULT_INJECTED, job.key, job.label,
                        detail=rule.describe())
            if traced:
                OBS.count("farm.faults_injected")
        budget = res.attempt_budget() if res is not None else None
        job.attempts += 1
        started = time.perf_counter()
        span_attrs = {"cached": False}
        if rule is not None:
            span_attrs["fault"] = rule.action

        def attempt():
            if rule is not None:
                _fire_execute_fault(rule)
            return job.thunk()

        try:
            with OBS.span(job.label, "obligation", **span_attrs) \
                    if traced else _NULL_CONTEXT:
                try:
                    if budget is None and rule is None:
                        result = job.thunk()  # zero-overhead fast path
                    else:
                        result = _call_with_deadline(attempt, budget)
                except ArmadaError as error:
                    if not job.wrap_errors:
                        raise
                    result = _wrap_armada_error(error)
            job.result = result
            job.wall_seconds = time.perf_counter() - started
            break
        except ObligationTimeout as timeout:
            job.wall_seconds = time.perf_counter() - started
            job.result = _inconclusive_result(
                job, _timeout_verdict(str(timeout))
            )
            events.emit(JOB_TIMEOUT, job.key, job.label,
                        wall_seconds=job.wall_seconds,
                        detail=str(timeout))
            if traced:
                OBS.count("farm.timeouts")
            break
        except TransientFault as fault:
            job.wall_seconds = time.perf_counter() - started
            max_retries = res.max_retries if res is not None else 0
            if job.attempts > max_retries:
                job.result = _inconclusive_result(
                    job, _abandoned_verdict(job.attempts, str(fault))
                )
                events.emit(JOB_ABANDONED, job.key, job.label,
                            detail=str(fault))
                if traced:
                    OBS.count("farm.abandoned")
                break
            events.emit(JOB_RETRY, job.key, job.label,
                        detail=str(fault))
            if traced:
                OBS.count("farm.retries")
            time.sleep(res.backoff_seconds(job.key, job.attempts))
    job.finished = True
    depth = tracker.finish_one()
    events.emit(JOB_FINISHED, job.key, job.label,
                wall_seconds=job.wall_seconds, queue_depth=depth)


class _NullContext:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return None


_NULL_CONTEXT = _NullContext()


def run_jobs(
    jobs: list[Job],
    cache=None,
    events: EventLog | None = None,
    resilience=None,
    journal=None,
) -> list[Job]:
    """Discharge every job; returns the same list with results filled."""
    if events is None:
        events = EventLog()
    res = resilience
    if res is not None:
        res.arm()

    traced = OBS.enabled
    queued_at = time.perf_counter() if traced else 0.0
    for position, job in enumerate(jobs):
        # Batch-relative obligation index: the deterministic address
        # fault-plan rules use (``armada verify`` discharges the whole
        # chain as one batch, so indices are chain-wide there).
        job.index = position
        events.emit(JOB_QUEUED, job.key, job.label,
                    queue_depth=len(jobs) - position)
        if traced:
            job.metadata["queued_at"] = queued_at

    to_run: list[Job] = []
    for job in jobs:
        if cache is not None and job.cacheable:
            verdict = cache.get(job.key)
            if verdict is not None:
                job.result = verdict
                job.finished = True
                job.from_cache = True
                events.emit(CACHE_HIT, job.key, job.label)
                if traced:
                    OBS.count("farm.cache_hits")
                    # A zero-duration span so traces cover *every*
                    # obligation, discharged-from-cache ones included.
                    with OBS.span(job.label, "obligation", cached=True):
                        pass
                continue
            if traced:
                OBS.count("farm.cache_misses")
        if journal is not None and job.cacheable:
            verdict = journal.lookup(job.key)
            if verdict is not None:
                job.result = verdict
                job.finished = True
                job.from_journal = True
                events.emit(JOURNAL_HIT, job.key, job.label)
                if traced:
                    OBS.count("farm.journal_hits")
                    with OBS.span(job.label, "obligation",
                                  cached=True, journal=True):
                        pass
                continue
        to_run.append(job)

    tracker = _DepthTracker(len(to_run))
    for job in to_run:
        _run_one(job, events, tracker, res)

    # Write-back in queue order.
    for job in jobs:
        job.apply(job.result)
        if (
            cache is not None
            and job.cacheable
            and not job.from_cache
            and not job.from_journal
            and isinstance(job.result, Verdict)
        ):
            if cache.put(job.key, job.result):
                events.emit(CACHE_STORE, job.key, job.label)
                rule = None
                if res is not None:
                    rule = res.fault(PHASE_CACHE_STORE, job.index,
                                     job.label, 0)
                if rule is not None and cache.corrupt_entry(job.key):
                    job.faults_hit.append(rule.action)
                    events.emit(FAULT_INJECTED, job.key, job.label,
                                detail=rule.describe())
                    if traced:
                        OBS.count("farm.faults_injected")
        if (
            journal is not None
            and job.cacheable
            and not job.from_journal
            and isinstance(job.result, Verdict)
        ):
            journal.record(job.key, job.result)
    return jobs

