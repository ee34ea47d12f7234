"""Resilience overhead: fault tolerance must be free when nothing fails.

The farm's resilience layer (deadlines, retries, fault hooks —
:mod:`repro.farm.resilience`) wraps every obligation execution, but with
no deadlines armed and no fault plan loaded the per-job cost is a few
``is None`` tests and one no-op rule lookup, after which the worker
takes the same zero-overhead fast path as before (``job.thunk()``
called directly, no deadline thread).  This benchmark quantifies that:

* **micro** — the per-job cost of the resilience bookkeeping a
  fault-free run performs (chain-expiry check, fault lookup, budget
  computation), in nanoseconds;
* **macro** — the TSP refinement chain verified with the resilience
  layer active vs. bypassed (``resilience=None``), plus the asserted
  arithmetic bound: the per-job bookkeeping, charged to every
  obligation of the chain, must stay under 5% of the bypassed run's
  wall time.  The direct wall-clock delta is recorded for the report
  but not asserted — at this chain's size it sits inside timing noise,
  which is exactly the point.

Results land in ``benchmarks/results/faults_overhead.{md,json}``.
"""

from __future__ import annotations

import os
import time

from _common import fmt_table, record
from repro.farm import FarmConfig, VerificationFarm, run_jobs
from repro.farm.resilience import ResilienceConfig
from repro.faults.plan import PHASE_EXECUTE
from repro.lang.frontend import check_program
from repro.proofs.engine import ProofEngine

MICRO_ITERS = 100_000
ROUNDS = 5
MAX_OVERHEAD = 0.05

EXAMPLE = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "examples", "running_example.arm",
)


class _BypassFarm(VerificationFarm):
    """A farm with the resilience layer switched off entirely — the
    pre-resilience code path, used as the overhead baseline."""

    def discharge(self, jobs):
        return run_jobs(
            jobs,
            cache=self.cache,
            events=self.events,
            resilience=None,
        )


def _per_job_bookkeeping_ns() -> float:
    """Nanoseconds of resilience bookkeeping per fault-free job."""
    res = ResilienceConfig()
    res.arm()
    started = time.perf_counter()
    for index in range(MICRO_ITERS):
        res.chain_expired()
        res.fault(PHASE_EXECUTE, index, "proof:lemma", 0)
        res.attempt_budget()
    return (time.perf_counter() - started) / MICRO_ITERS * 1e9


def _verify_seconds(farm_cls) -> tuple[float, object, int]:
    with open(EXAMPLE, encoding="utf-8") as handle:
        source = handle.read()
    checked = check_program(source, EXAMPLE)
    farm = farm_cls(FarmConfig())
    started = time.perf_counter()
    outcome = ProofEngine(checked, farm=farm).run_all()
    return (
        time.perf_counter() - started,
        outcome,
        farm.summary().jobs,
    )


def test_resilient_mode_overhead_is_under_5_percent():
    bookkeeping_ns = min(
        _per_job_bookkeeping_ns() for _ in range(ROUNDS)
    )

    baseline_s, resilient_s = None, None
    jobs = 0
    for _ in range(ROUNDS):  # interleave to damp frequency noise
        seconds, outcome, jobs = _verify_seconds(_BypassFarm)
        assert outcome.success
        baseline_s = seconds if baseline_s is None \
            else min(baseline_s, seconds)
        seconds, outcome, jobs = _verify_seconds(VerificationFarm)
        assert outcome.success
        resilient_s = seconds if resilient_s is None \
            else min(resilient_s, seconds)

    overhead = (jobs * bookkeeping_ns * 1e-9) / baseline_s
    measured_delta = resilient_s / baseline_s - 1.0

    rows = [
        ["per-job bookkeeping", f"{bookkeeping_ns:.0f} ns"],
        ["chain obligations", str(jobs)],
        ["verify, resilience bypassed", f"{baseline_s * 1e3:.1f} ms"],
        ["verify, resilience active", f"{resilient_s * 1e3:.1f} ms"],
        ["asserted overhead bound", f"{overhead:.3%}"],
        ["measured wall delta (noisy)", f"{measured_delta:+.1%}"],
    ]
    record(
        "faults_overhead",
        "Resilience overhead with zero faults (repro.farm)",
        [
            f"TSP refinement chain ({jobs} farm obligations), best of "
            f"{ROUNDS} interleaved rounds.",
            "",
            *fmt_table(["measurement", "value"], rows),
        ],
        data={
            "per_job_bookkeeping_ns": bookkeeping_ns,
            "chain_obligations": jobs,
            "baseline_seconds": baseline_s,
            "resilient_seconds": resilient_s,
            "asserted_overhead": overhead,
            "measured_wall_delta": measured_delta,
            "bound": MAX_OVERHEAD,
        },
    )

    assert overhead < MAX_OVERHEAD, (
        f"fault-free resilience overhead {overhead:.2%} exceeds "
        f"{MAX_OVERHEAD:.0%}"
    )


if __name__ == "__main__":
    import pathlib
    import sys

    sys.path.insert(0, str(pathlib.Path(__file__).parent))
    test_resilient_mode_overhead_is_under_5_percent()
    print("ok — see benchmarks/results/faults_overhead.md")
