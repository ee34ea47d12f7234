"""``repro.farm`` — a cached, deadline-bounded verification
orchestrator.

Armada's workflow (Figure 1 of the paper) generates thousands of lemmas
per refinement recipe and hands them to Dafny/Z3, which discharge
verification conditions in parallel and cache verified modules between
runs.  This subsystem keeps the cache and makes lemma discharge a
first-class *job system* instead of a loop inside the proof engine.  It
discharges one obligation at a time: the slowest obligation of a batch
dominates its discharge time, so a worker pool would have almost
nothing to overlap.

Layers (bottom-up):

* :mod:`repro.farm.cache` — content-addressed on-disk verdict store
  with framed, checksummed, self-healing entries; re-verifying an
  unchanged program discharges lemmas by file read.  Its keys come
  from :mod:`repro.hashing`, a leaf module, so that code which only
  needs a fingerprint (the stepper's bytecode cache) never loads the
  farm.
* :mod:`repro.farm.scheduler` — turns lemma obligations, the
  whole-program refinement check among them, into
  :class:`~repro.farm.scheduler.Job` records with stable keys.
  State-space exploration (``armada explore``) is not a farm job: it
  builds an :class:`~repro.explore.Explorer` directly.
* :mod:`repro.farm.resilience` — deadline and drain policy.
* :mod:`repro.farm.workers` — runs the queue in order on the calling
  thread, under deadlines, stores each settled verdict as it returns,
  and applies verdicts back in queue order.
* :mod:`repro.farm.summary` — the counts behind the one-line summary
  and ``--farm-report``.

The proof cache is also the resume path: a run that dies or is drained
has stored every verdict it settled, so the same command run again
against the same cache executes only the obligations left over.

:class:`VerificationFarm` is the facade the proof engine and the CLI
use; a default-constructed farm (no cache, no deadlines) behaves
exactly like the historical sequential checker.
"""

from __future__ import annotations

from pathlib import Path

from repro.farm.cache import ProofCache  # noqa: F401
from repro.farm.resilience import (  # noqa: F401
    ResilienceConfig,
    ShutdownToken,
)
from repro.farm.scheduler import Job, lemma_job_key, lemma_jobs  # noqa: F401
from repro.farm.summary import FarmSummary  # noqa: F401
from repro.farm.workers import run_jobs  # noqa: F401
from repro.hashing import code_version, structural_hash  # noqa: F401
from repro.record import Record


class FarmConfig(Record):
    """How a :class:`VerificationFarm` caches and bounds its work."""

    #: Proof-cache directory; None disables caching.
    cache_dir: str | Path | None = None
    #: Byte budget for the proof cache; exceeding it evicts
    #: least-recently-used entries.  None = unbounded.
    cache_max_bytes: int | None = None
    #: Per-obligation wall-clock deadline (seconds); None = unbounded.
    obligation_timeout: float | None = None
    #: Whole-chain wall-clock budget (seconds); None = unbounded.
    chain_deadline: float | None = None


class VerificationFarm:
    """Facade: one farm per verification run.

    The engine hands it job batches via :meth:`discharge`; the farm
    routes them through the cache and the workers under one resilience
    policy, and counts across batches so one summary covers the whole
    chain.
    """

    def __init__(
        self,
        config: FarmConfig | None = None,
        cache: ProofCache | None = None,
    ) -> None:
        """``cache``: an externally owned :class:`ProofCache` to use
        instead of constructing one from ``config.cache_dir`` — the
        ``armada serve`` daemon shares one capped, multi-tenant cache
        instance across every job's farm this way.  A shared cache's
        quarantine and eviction counts stay with its owner."""
        self.config = config or FarmConfig()
        self._summary = FarmSummary()
        self.shutdown = ShutdownToken()
        #: True when this farm's cache is owned by someone else.
        self.cache_shared = cache is not None
        if cache is not None:
            self.cache: ProofCache | None = cache
        else:
            self.cache = (
                ProofCache(
                    self.config.cache_dir,
                    max_bytes=self.config.cache_max_bytes,
                )
                if self.config.cache_dir is not None
                else None
            )
        self.resilience = ResilienceConfig(
            obligation_timeout=self.config.obligation_timeout,
            chain_deadline=self.config.chain_deadline,
            shutdown=self.shutdown,
        )

    def request_shutdown(self) -> None:
        """Ask the farm to drain: the in-flight obligation finishes,
        queued ones short-circuit to UNKNOWN (inconclusive, uncached).
        Safe from signal handlers and other threads."""
        self.shutdown.request()

    @property
    def shutdown_requested(self) -> bool:
        return self.shutdown.requested

    def discharge(self, jobs: list[Job]) -> list[Job]:
        """Run one batch of jobs to completion.  The chain deadline is
        armed at the first discharge and shared by every later batch."""
        return run_jobs(
            jobs,
            cache=self.cache,
            summary=self._summary,
            resilience=self.resilience,
        )

    # ------------------------------------------------------------------

    def summary(self) -> FarmSummary:
        """The counts of every discharge so far; an owned cache adds
        the entries it quarantined and evicted."""
        if self.cache is None or self.cache_shared:
            return self._summary
        summary = self._summary.copy()
        summary.cache_quarantined = self.cache.quarantined
        summary.cache_evictions = self.cache.evictions
        return summary

    def summary_line(self) -> str:
        return self.summary().one_line()

    def report_lines(self) -> list[str]:
        lines = ["verification farm [sequential]"]
        lines.append(f"policy: {self.resilience.describe()}")
        lines.extend(self.summary().report_lines())
        if self.cache is not None:
            line = (
                f"cache: {self.cache.directory} "
                f"({self.cache.hits} hits, {self.cache.misses} misses, "
                f"{self.cache.stores} stores, "
                f"{self.cache.failed_stores} failed stores, "
                f"{self.cache.quarantined} quarantined, "
                f"{self.cache.evictions} evicted)"
            )
            if self.cache.max_bytes is not None:
                line += (
                    f" cap {self.cache.max_bytes} bytes, "
                    f"{self.cache.total_bytes()} used"
                )
            if self.cache_shared:
                line += " [shared]"
            lines.append(line)
        return lines
