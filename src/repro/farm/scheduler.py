"""Obligation scheduling: checkable units → a deterministic job queue.

The scheduler turns the checkable units of a verification run into
:class:`Job` records with *stable keys*.  Two kinds of unit exist:

* **Lemma obligations** — one per generated lemma with an
  ``obligation`` callable, across every proof of a chain.  Their keys
  follow the content-addressing scheme of :mod:`repro.farm.cache`
  (lemma content + prover fingerprint + code version) and are therefore
  cacheable across runs.
* **Whole-program refinement checks** — the bounded simulation checks
  some strategies request.  They are scheduled through the same queue
  as lemma jobs but are keyed by proof identity and marked
  non-cacheable: their input is a pair of state machines, which the
  structural hash does not cover.

Job order is the order obligations appear in their scripts; the workers
run them and apply results back in exactly this order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.hashing import code_version, structural_hash
from repro.obs import OBS


@dataclass
class Job:
    """One schedulable checkable unit."""

    #: Stable content-addressed identity (cache key for cacheable jobs).
    key: str
    #: Human-readable name, ``proof:lemma``-shaped, for events/reports.
    label: str
    #: The work: returns a Verdict (lemma jobs) or a strategy-specific
    #: result object (global checks).
    thunk: Callable[[], Any]
    #: Writes the result back onto the proof artifacts.  Called by the
    #: workers in job order, on the scheduling thread.
    apply: Callable[[Any], None]
    #: Whether the result may be served from / stored to the proof cache.
    cacheable: bool = True
    #: Whether an ArmadaError from the thunk becomes a refuted verdict
    #: (the engine's historical per-obligation behaviour).
    wrap_errors: bool = True
    # ---- filled in by the workers ----
    result: Any = None
    finished: bool = False
    from_cache: bool = False
    #: Served from a ``--journal`` resume file instead of running.
    from_journal: bool = False
    wall_seconds: float = 0.0
    #: Position in the batch queue — the address fault-plan rules and
    #: chaos tests use to name one obligation deterministically.
    index: int = -1
    #: Executions consumed so far (0 while untried); a transiently
    #: failed job is retried until this exceeds the retry budget.
    attempts: int = 0
    #: Injected-fault actions that fired on this job, in firing order.
    faults_hit: list[str] = field(default_factory=list)
    metadata: dict[str, Any] = field(default_factory=dict)


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


def global_check_job(
    proof_name: str,
    thunk: Callable[[], Any],
    apply: Callable[[Any], None],
) -> Job:
    """A whole-program bounded refinement check as a queue citizen."""
    if OBS.enabled:
        OBS.count("farm.global_checks_scheduled")
    return Job(
        key=structural_hash("global-check", proof_name),
        label=f"{proof_name}:WholeProgramRefinement",
        thunk=thunk,
        apply=apply,
        cacheable=False,
        wrap_errors=False,
    )
