"""``repro.farm`` — a cached, *fault-tolerant* verification
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
* :mod:`repro.farm.scheduler` — turns lemma obligations and
  whole-program refinement checks into :class:`~repro.farm.scheduler.Job`
  records with stable keys.  State-space exploration (``armada
  explore``) is not a farm job: it builds an
  :class:`~repro.explore.Explorer` directly.
* :mod:`repro.farm.resilience` — deadline, retry, and fault-injection
  policy (see :mod:`repro.faults`).
* :mod:`repro.farm.journal` — append-only settled-verdict log for
  crash-safe resume (``armada verify --journal``).
* :mod:`repro.farm.workers` — runs the queue in order on the calling
  thread, under deadlines and retries, and applies verdicts back in
  queue order.
* :mod:`repro.farm.events` — structured event stream + summary report.

:class:`VerificationFarm` is the facade the proof engine and the CLI
use; a default-constructed farm (no cache, no deadlines) behaves
exactly like the historical sequential checker.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.farm.cache import ProofCache  # noqa: F401
from repro.farm.events import (  # noqa: F401
    CACHE_EVICT,
    CACHE_HIT,
    CACHE_QUARANTINE,
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
    FarmEvent,
    FarmSummary,
)
from repro.farm.journal import Journal  # noqa: F401
from repro.farm.resilience import (  # noqa: F401
    DEFAULT_MAX_RETRIES,
    ResilienceConfig,
    ShutdownToken,
)
from repro.farm.scheduler import (  # noqa: F401
    Job,
    global_check_job,
    lemma_job_key,
    lemma_jobs,
)
from repro.farm.workers import run_jobs  # noqa: F401
from repro.faults import FaultPlan  # noqa: F401
from repro.hashing import code_version, structural_hash  # noqa: F401


@dataclass
class FarmConfig:
    """How a :class:`VerificationFarm` caches and survives."""

    #: Proof-cache directory; None disables caching.
    cache_dir: str | Path | None = None
    #: Byte budget for the proof cache; exceeding it evicts
    #: least-recently-used entries.  None = unbounded.
    cache_max_bytes: int | None = None
    #: Per-obligation wall-clock deadline (seconds); None = unbounded.
    obligation_timeout: float | None = None
    #: Whole-chain wall-clock budget (seconds); None = unbounded.
    chain_deadline: float | None = None
    #: Retry budget for transient failures before UNKNOWN.
    max_retries: int = DEFAULT_MAX_RETRIES
    #: Backoff floor between retries (seconds); tests shrink this.
    retry_base_delay: float = 0.05
    #: Deterministic fault-injection plan (disabled when None).
    faults: FaultPlan | None = None
    #: Resume-journal path; None disables journaling.
    journal_path: str | Path | None = None


class VerificationFarm:
    """Facade: one farm per verification run.

    The engine hands it job batches via :meth:`discharge`; the farm
    routes them through the cache, the journal, and the workers under
    one resilience policy, and accumulates the event stream
    across batches so one summary covers the whole chain.
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
        quarantine/eviction callbacks stay with its owner."""
        self.config = config or FarmConfig()
        self.events = EventLog()
        self.shutdown = ShutdownToken()
        #: True when this farm's cache is owned by someone else.
        self.cache_shared = cache is not None
        if cache is not None:
            self.cache: ProofCache | None = cache
        else:
            self.cache = (
                ProofCache(
                    self.config.cache_dir,
                    on_quarantine=self._on_quarantine,
                    max_bytes=self.config.cache_max_bytes,
                    on_evict=self._on_evict,
                )
                if self.config.cache_dir is not None
                else None
            )
        self.journal: Journal | None = (
            Journal(self.config.journal_path)
            if self.config.journal_path is not None
            else None
        )
        self.resilience = ResilienceConfig(
            obligation_timeout=self.config.obligation_timeout,
            chain_deadline=self.config.chain_deadline,
            max_retries=self.config.max_retries,
            retry_base_delay=self.config.retry_base_delay,
            faults=self.config.faults,
            shutdown=self.shutdown,
        )

    def _on_quarantine(self, key: str, reason: str) -> None:
        self.events.emit(CACHE_QUARANTINE, key, "", detail=reason)

    def _on_evict(self, key: str, size: int) -> None:
        self.events.emit(CACHE_EVICT, key, "", detail=f"{size} bytes")

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
            events=self.events,
            resilience=self.resilience,
            journal=self.journal,
        )

    def close(self) -> None:
        """Flush and release the journal (idempotent)."""
        if self.journal is not None:
            self.journal.close()

    # ------------------------------------------------------------------

    def summary(self) -> FarmSummary:
        return self.events.summary()

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
        if self.journal is not None:
            lines.append(
                f"journal: {self.journal.path} "
                f"({len(self.journal)} entries, "
                f"{self.journal.replayed} replayed, "
                f"{self.journal.corrupt_lines} corrupt lines skipped)"
            )
        return lines
