"""Discharges farm jobs one at a time, with deadlines and the proof
cache.

``run_jobs`` is the farm's execution core.  It drives the scheduler's
job queue to completion in three phases:

1. **Cache probe** — cacheable jobs are looked up in the proof cache;
   hits skip execution entirely.
2. **Execution** — the remaining jobs run in queue order on the calling
   thread.  Each freshly computed settled verdict is stored to the
   cache as soon as its obligation returns, so a run that dies
   mid-batch keeps every verdict it settled, and the same command run
   again against the same cache executes only what is left.
3. **Apply** — results are written back via each job's ``apply``
   callback *in queue order*.

Each phase counts what it did into one
:class:`~repro.farm.summary.FarmSummary`.

Deadline and drain semantics (see :mod:`repro.farm.resilience`):

* An obligation that exceeds its wall-clock budget (per-obligation
  deadline, or what is left of the chain budget) yields a **TIMEOUT
  verdict** — inconclusive, never refuted, never hung.  The runaway
  obligation is abandoned on a daemon thread, which keeps running until
  it returns; obligations are pure functions of their fingerprint, so
  the discarded result is harmless.
* A **spent chain budget** short-circuits every job that has not
  started to a TIMEOUT verdict.
* A **drain request** short-circuits every job that has not started to
  an UNKNOWN verdict.

Only a job whose obligation ran counts as executed, so the summary
counts a short-circuited job as neither executed nor slow.

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
)
from repro.farm.scheduler import Job
from repro.farm.summary import FarmSummary
from repro.obs import OBS
from repro.verifier.prover import TIMEOUT, UNKNOWN, Verdict


def _wrap_armada_error(error: ArmadaError) -> Verdict:
    if isinstance(error, StateBudgetExceeded):
        return Verdict(UNKNOWN, {"error": str(error)})
    from repro.proofs.artifacts import bool_verdict

    return bool_verdict(False, {"error": str(error)})


def _timeout_verdict(detail: str) -> Verdict:
    return Verdict(TIMEOUT, {"error": detail})


def _cancelled_verdict() -> Verdict:
    """UNKNOWN, not TIMEOUT: the obligation never ran.  Inconclusive
    verdicts are never cached, so a drained obligation is re-checked by
    the next (resumed) run."""
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

    The call runs on a daemon helper thread; if the budget expires
    the helper is abandoned and :class:`ObligationTimeout` is raised in
    the caller.  An abandoned helper keeps running (and holding the GIL
    in turns) until *fn* returns; its result is discarded, which is
    sound because obligations are pure."""
    if budget is None:
        return fn()
    if budget <= 0:
        raise ObligationTimeout(0.0)
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


def _short_circuit(job: Job, verdict: Verdict, counter: str) -> None:
    """Settle a job that never started with an inconclusive verdict."""
    job.result = _inconclusive_result(job, verdict)
    job.finished = True
    if OBS.enabled:
        OBS.count(counter)


def _run_one(job: Job, summary: FarmSummary, res=None) -> None:
    """Execute one job: the drain check, the chain-deadline check, then
    the obligation under its deadline."""
    traced = OBS.enabled
    if traced:
        queued_at = job.metadata.get("queued_at")
        if queued_at is not None:
            OBS.observe("farm.queue_wait_seconds",
                        time.perf_counter() - queued_at)
    budget = None
    if res is not None:
        if res.shutdown_requested():
            _short_circuit(job, _cancelled_verdict(), "farm.cancelled")
            summary.cancelled += 1
            return
        # Read before the expiry check: a budget the chain clock has
        # run down to zero is then always caught by that check.
        budget = res.attempt_budget()
        if res.chain_expired():
            detail = (
                f"chain deadline budget ({res.chain_deadline:g}s) "
                "exhausted"
            )
            _short_circuit(job, _timeout_verdict(detail),
                           "farm.timeouts")
            summary.timeouts += 1
            return
    started = time.perf_counter()
    try:
        with OBS.span(job.label, "obligation", cached=False) \
                if traced else _NULL_CONTEXT:
            try:
                job.result = _call_with_deadline(job.thunk, budget)
            except ArmadaError as error:
                if not job.wrap_errors:
                    raise
                job.result = _wrap_armada_error(error)
        job.wall_seconds = time.perf_counter() - started
    except ObligationTimeout as timeout:
        job.wall_seconds = time.perf_counter() - started
        job.result = _inconclusive_result(
            job, _timeout_verdict(str(timeout))
        )
        summary.timeouts += 1
        if traced:
            OBS.count("farm.timeouts")
    job.finished = True
    summary.record_executed(job.label, job.wall_seconds)


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
    summary: FarmSummary | None = None,
    resilience=None,
) -> list[Job]:
    """Discharge every job, counting into *summary*; returns the same
    list with results filled."""
    if summary is None:
        summary = FarmSummary()
    res = resilience
    if res is not None:
        res.arm()

    traced = OBS.enabled
    summary.jobs += len(jobs)
    if traced:
        queued_at = time.perf_counter()
        for job in jobs:
            job.metadata["queued_at"] = queued_at

    to_run: list[Job] = []
    for job in jobs:
        if cache is not None and job.cacheable:
            verdict = cache.get(job.key)
            if verdict is not None:
                job.result = verdict
                job.finished = True
                job.from_cache = True
                summary.cache_hits += 1
                if traced:
                    OBS.count("farm.cache_hits")
                    # A zero-duration span so traces cover *every*
                    # obligation, discharged-from-cache ones included.
                    with OBS.span(job.label, "obligation", cached=True):
                        pass
                continue
            if traced:
                OBS.count("farm.cache_misses")
        to_run.append(job)

    for job in to_run:
        _run_one(job, summary, res)
        if (
            cache is not None
            and job.cacheable
            and isinstance(job.result, Verdict)
            and cache.put(job.key, job.result)
        ):
            summary.cache_stores += 1

    # Write-back in queue order.
    for job in jobs:
        job.apply(job.result)
    return jobs
