"""Structured event stream for the verification farm.

Every scheduling decision the farm makes — a job entering the queue, a
job starting, a verdict coming back, a cache hit avoiding work — is
recorded as a :class:`FarmEvent`.  The log is append-only and guarded
by a lock, so another thread may read it while a discharge runs.
Consumers read it after a discharge round to build the summary report
(``armada verify --farm-report``) or to assert scheduling behaviour in
tests.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

JOB_QUEUED = "job_queued"
JOB_STARTED = "job_started"
#: The job's obligation ran (to a verdict or to its own deadline); a
#: job short-circuited before it started emits no finish event.
JOB_FINISHED = "job_finished"
CACHE_HIT = "cache_hit"
CACHE_STORE = "cache_store"
# --- deadline, drain and cache-healing events ---
JOB_TIMEOUT = "job_timeout"
CACHE_QUARANTINE = "cache_quarantine"
CACHE_EVICT = "cache_evict"
JOURNAL_HIT = "journal_hit"
DEADLINE_EXPIRED = "deadline_expired"
#: A drain request (SIGTERM/SIGINT, serve cancel) short-circuited this
#: job before it ran; its verdict is UNKNOWN and is never cached.
JOB_CANCELLED = "job_cancelled"


@dataclass
class FarmEvent:
    """One observation from the farm's job lifecycle."""

    kind: str
    job_key: str
    label: str
    #: Wall-clock seconds the job's obligation ran (finish events only).
    wall_seconds: float = 0.0
    #: Free-text qualifier (which deadline expired, why a job was
    #: cancelled or an entry quarantined).
    detail: str = ""
    timestamp: float = 0.0


class EventLog:
    """Append-only, thread-safe event sink."""

    def __init__(self) -> None:
        self._events: list[FarmEvent] = []
        self._lock = threading.Lock()

    def emit(
        self,
        kind: str,
        job_key: str,
        label: str,
        wall_seconds: float = 0.0,
        detail: str = "",
    ) -> None:
        event = FarmEvent(
            kind, job_key, label, wall_seconds, detail, time.monotonic(),
        )
        with self._lock:
            self._events.append(event)

    def events(self, kind: str | None = None) -> list[FarmEvent]:
        with self._lock:
            snapshot = list(self._events)
        if kind is None:
            return snapshot
        return [e for e in snapshot if e.kind == kind]

    def clear(self) -> None:
        with self._lock:
            self._events.clear()

    def summary(self) -> FarmSummary:
        return FarmSummary.from_events(self.events())


@dataclass
class FarmSummary:
    """Aggregate view of one or more discharge rounds."""

    jobs: int = 0
    #: Obligations that ran, to a verdict or to their own deadline.
    executed: int = 0
    cache_hits: int = 0
    cache_stores: int = 0
    #: Obligations that hit a wall-clock deadline or found the chain
    #: budget spent (TIMEOUT verdicts).
    timeouts: int = 0
    #: Corrupt cache entries quarantined and recomputed.
    cache_quarantined: int = 0
    #: Entries the LRU policy removed to respect the cache byte cap.
    cache_evictions: int = 0
    #: Obligations replayed from a resume journal.
    journal_hits: int = 0
    #: Obligations short-circuited by a drain request.
    cancelled: int = 0
    worker_seconds: float = 0.0
    #: The slowest executed jobs, as (label, wall seconds), slowest first.
    slowest: list[tuple[str, float]] = field(default_factory=list)

    @classmethod
    def from_events(cls, events: list[FarmEvent]) -> FarmSummary:
        summary = cls()
        timed: list[tuple[str, float]] = []
        for event in events:
            if event.kind == JOB_QUEUED:
                summary.jobs += 1
            elif event.kind == JOB_FINISHED:
                summary.executed += 1
                summary.worker_seconds += event.wall_seconds
                timed.append((event.label, event.wall_seconds))
            elif event.kind == CACHE_HIT:
                summary.cache_hits += 1
            elif event.kind == CACHE_STORE:
                summary.cache_stores += 1
            elif event.kind == JOB_TIMEOUT:
                summary.timeouts += 1
            elif event.kind == CACHE_QUARANTINE:
                summary.cache_quarantined += 1
            elif event.kind == CACHE_EVICT:
                summary.cache_evictions += 1
            elif event.kind == JOURNAL_HIT:
                summary.journal_hits += 1
            elif event.kind == JOB_CANCELLED:
                summary.cancelled += 1
        timed.sort(key=lambda pair: -pair[1])
        summary.slowest = timed[:5]
        return summary

    @property
    def hit_rate(self) -> float:
        """Fraction of queued jobs discharged from cache."""
        return self.cache_hits / self.jobs if self.jobs else 0.0

    def one_line(self) -> str:
        return (
            f"farm: {self.jobs} obligations, "
            f"{self.cache_hits} from cache, "
            f"{self.executed} executed in "
            f"{self.worker_seconds:.2f}s worker time [sequential]"
        )

    def report_lines(self) -> list[str]:
        lines = [
            f"obligations queued:   {self.jobs}",
            f"discharged from cache: {self.cache_hits} "
            f"({self.hit_rate:.1%})",
            f"executed by workers:  {self.executed} "
            f"({self.worker_seconds:.2f}s worker time)",
            f"cache stores:         {self.cache_stores}",
        ]
        if self.journal_hits:
            lines.append(
                f"replayed from journal:  {self.journal_hits}"
            )
        if self.cache_evictions:
            lines.append(
                f"cache entries evicted (LRU): {self.cache_evictions}"
            )
        if self.cancelled:
            lines.append(
                f"cancelled by drain request: {self.cancelled}"
            )
        if self.timeouts or self.cache_quarantined:
            lines.append(
                f"timeouts: {self.timeouts}  "
                f"cache entries quarantined: {self.cache_quarantined}"
            )
        if self.slowest:
            lines.append("slowest obligations:")
            for label, seconds in self.slowest:
                lines.append(f"  {seconds:8.3f}s  {label}")
        return lines
