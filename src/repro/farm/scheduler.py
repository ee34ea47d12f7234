"""Obligation scheduling: lemma obligations → a deterministic job queue.

The scheduler turns every generated lemma with an ``obligation``
callable, across every proof of a chain, into a :class:`Job` with a
*stable key*.  Keys follow the content-addressing scheme of
:mod:`repro.farm.cache` (lemma content + the caller's fingerprint +
code version), so every job is cacheable across runs.  The
whole-program bounded refinement check is one more lemma
(``WholeProgramRefinement``); the proof engine's fingerprint covers
both machines it compares.

Job order is the order obligations appear in their scripts; the workers
run them and apply verdicts back in exactly this order.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.hashing import code_version, structural_hash
from repro.obs import OBS
from repro.record import Record


class Job(Record):
    """One schedulable checkable unit."""

    #: Stable content-addressed identity: the proof-cache key.
    key: str
    #: Human-readable name, ``proof:lemma``-shaped, for events/reports.
    label: str
    #: The work: returns a Verdict.
    thunk: Callable[[], Any]
    #: Writes the verdict back onto the proof artifacts.  Called by the
    #: workers in job order, on the scheduling thread.
    apply: Callable[[Any], None]
    # ---- filled in by the workers ----
    result: Any = None
    finished: bool = False
    from_cache: bool = False
    #: Always False: nothing but the cache serves a verdict any more.
    #: Kept because the frozen layer tracer
    #: (``benchmarks/e2e/trace_layers.py``) still reads it.
    from_journal: bool = False
    wall_seconds: float = 0.0


def lemma_job_key(
    lemma: Any, prover_fingerprint: str, version: str | None = None
) -> str:
    """The content-addressed identity of one lemma obligation."""
    return structural_hash(
        "lemma-obligation",
        lemma.fingerprint(),
        prover_fingerprint,
        version if version is not None else code_version(),
    )


def lemma_jobs(
    script: Any,
    prover_fingerprint: str,
    version: str | None = None,
) -> list[Job]:
    """One job per lemma with an obligation, in script order."""
    if version is None:
        version = code_version()
    jobs: list[Job] = []
    for lemma in script.lemmas:
        if lemma.obligation is None:
            continue

        def apply(verdict: Any, lemma: Any = lemma) -> None:
            lemma.verdict = verdict

        jobs.append(
            Job(
                key=lemma_job_key(lemma, prover_fingerprint, version),
                label=f"{script.proof_name}:{lemma.name}",
                thunk=lemma.obligation,
                apply=apply,
            )
        )
    if OBS.enabled:
        OBS.count("farm.lemma_jobs_scheduled", len(jobs))
    return jobs

