"""The farm's run summary: what its discharges did, counted as they
happen.

:func:`repro.farm.workers.run_jobs` counts every job it queues, runs,
serves from the proof cache, stores, times out or cancels into one
:class:`FarmSummary`; a :class:`~repro.farm.VerificationFarm` keeps one
across all its discharges, so the summary covers the whole chain.  It
backs the one-line summary and ``armada verify --farm-report``.
"""

from __future__ import annotations

from repro.record import Fresh, Record


#: How many of the slowest executed obligations a summary keeps.
SLOWEST_KEPT = 5


class FarmSummary(Record):
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
    #: Obligations short-circuited by a drain request.
    cancelled: int = 0
    worker_seconds: float = 0.0
    #: The slowest executed jobs, as (label, wall seconds), slowest
    #: first by the printed millisecond, then by label.
    slowest: list[tuple[str, float]] = Fresh(list)

    def record_executed(self, label: str, seconds: float) -> None:
        """Count one obligation that ran, keeping the slowest few.

        Times are ranked as they print, to the millisecond, and equal
        ones by label: sub-millisecond differences are timer noise, and
        must not decide which obligations are kept.
        """
        self.executed += 1
        self.worker_seconds += seconds
        self.slowest.append((label, seconds))
        self.slowest.sort(key=lambda pair: (-round(pair[1], 3), pair[0]))
        del self.slowest[SLOWEST_KEPT:]

    def copy(self) -> "FarmSummary":
        return self.replace(slowest=list(self.slowest))

    def to_dict(self) -> dict:
        """Every field of a copy by name: the serve result's ``farm``
        object."""
        copy = self.copy()
        return {name: getattr(copy, name) for name in self._fields}

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
        # Times that print as 0.000s are timer noise, left out.
        shown = [(label, seconds) for label, seconds in self.slowest
                 if round(seconds, 3) > 0]
        if shown:
            lines.append("slowest obligations:")
            for label, seconds in shown:
                lines.append(f"  {seconds:8.3f}s  {label}")
        return lines
