"""Resilience policy for the verification farm.

One :class:`ResilienceConfig` travels with a farm and answers three
questions the workers ask about every obligation:

* **How long may it run?**  A per-obligation wall-clock deadline
  (``obligation_timeout``) and a whole-chain deadline budget
  (``chain_deadline``), armed at the farm's first discharge.  An
  expired obligation yields a TIMEOUT verdict — *inconclusive*, never
  refuted — and an expired chain budget short-circuits the remaining
  queue the same way instead of hanging.
* **How often may it fail?**  Transient failures (only injected faults
  raise them) are retried with exponential backoff capped by
  ``max_retries``; once exhausted, the obligation goes UNKNOWN.
* **How long to wait between tries?**  Deterministic jitter: backoff
  delays are derived from SHA-256 over ``(seed, job key, attempt)``,
  so a chaos run sleeps the same pattern every time.

The default config enables retries with no deadlines and no fault
plan, while costing the fault-free hot path nothing beyond a few ``is
None`` tests.
"""

from __future__ import annotations

import hashlib
import threading
import time
from dataclasses import dataclass, field

from repro.faults.plan import FaultPlan, FaultRule

DEFAULT_MAX_RETRIES = 2


class ShutdownToken:
    """A one-way drain signal shared by a farm and its workers.

    Once requested (SIGTERM/SIGINT handler, a serve-side cancel), the
    obligation currently executing finishes normally, and every
    *not-yet-started* obligation short-circuits to an UNKNOWN verdict —
    inconclusive, so it is never cached or journaled and a resumed run
    re-checks it.  The token is monotonic: there is no way to
    un-request a drain, which keeps the worker-side check a single
    lock-free ``Event.is_set``.
    """

    __slots__ = ("_event",)

    def __init__(self) -> None:
        self._event = threading.Event()

    def request(self) -> None:
        self._event.set()

    @property
    def requested(self) -> bool:
        return self._event.is_set()


@dataclass
class ResilienceConfig:
    """Deadline, retry, and fault-injection policy for one farm."""

    #: Per-obligation wall-clock deadline in seconds; None = unbounded.
    obligation_timeout: float | None = None
    #: Whole-chain wall-clock budget in seconds, measured from the
    #: farm's first discharge; None = unbounded.
    chain_deadline: float | None = None
    #: How many times a transiently failed obligation is re-run before
    #: it is abandoned as UNKNOWN (0 disables retries).
    max_retries: int = DEFAULT_MAX_RETRIES
    #: Exponential backoff: attempt *n* sleeps
    #: ``min(base * 2**n, max) * (1 + jitter)`` seconds.
    retry_base_delay: float = 0.05
    retry_max_delay: float = 2.0
    #: The (disabled-by-default) fault-injection plan; None = no hooks.
    faults: FaultPlan | None = None
    #: Cooperative drain signal; None = this farm cannot be drained.
    shutdown: ShutdownToken | None = field(default=None, repr=False)
    #: Monotonic timestamp the chain budget expires at; armed lazily.
    deadline_at: float | None = field(default=None, repr=False)
    #: Whether the one-per-run ``deadline_expired`` event fired yet.
    _expiry_reported: bool = field(default=False, repr=False)

    # ------------------------------------------------------------------
    # chain deadline budget

    def arm(self) -> None:
        """Start the chain budget clock (idempotent)."""
        if self.chain_deadline is not None and self.deadline_at is None:
            self.deadline_at = time.monotonic() + self.chain_deadline

    def chain_expired(self) -> bool:
        return (
            self.deadline_at is not None
            and time.monotonic() >= self.deadline_at
        )

    def shutdown_requested(self) -> bool:
        return self.shutdown is not None and self.shutdown.requested

    def report_expiry_once(self) -> bool:
        """True exactly once per run, so the workers emit a single
        ``deadline_expired`` event no matter how many obligations the
        expiry short-circuits."""
        if self._expiry_reported:
            return False
        self._expiry_reported = True
        return True

    def attempt_budget(self) -> float | None:
        """Seconds one attempt may run: the tighter of the obligation
        deadline and what is left of the chain budget."""
        remaining = None
        if self.deadline_at is not None:
            remaining = max(0.0, self.deadline_at - time.monotonic())
        if self.obligation_timeout is None:
            return remaining
        if remaining is None:
            return self.obligation_timeout
        return min(self.obligation_timeout, remaining)

    # ------------------------------------------------------------------
    # retry backoff

    def backoff_seconds(self, key: str, attempt: int) -> float:
        """Deterministically jittered exponential backoff delay before
        re-running *key*'s attempt number *attempt* (1-based)."""
        base = min(
            self.retry_base_delay * (2 ** max(0, attempt - 1)),
            self.retry_max_delay,
        )
        seed = self.faults.seed if self.faults is not None else 0
        digest = hashlib.sha256(
            f"{seed}:{key}:{attempt}".encode()
        ).digest()
        jitter = int.from_bytes(digest[:4], "big") / 0xFFFFFFFF
        return base * (1.0 + jitter)

    # ------------------------------------------------------------------
    # fault addressing

    def fault(self, phase: str, index: int, label: str,
              attempt: int) -> FaultRule | None:
        """The injected fault firing at this site, if any."""
        if self.faults is None:
            return None
        return self.faults.match(phase, index, label, attempt)

    def describe(self) -> str:
        parts = [f"retries<={self.max_retries}"]
        if self.obligation_timeout is not None:
            parts.append(f"obligation<={self.obligation_timeout:g}s")
        if self.chain_deadline is not None:
            parts.append(f"chain<={self.chain_deadline:g}s")
        if self.faults is not None:
            parts.append(
                f"faults={len(self.faults)} from {self.faults.name}"
            )
        return ", ".join(parts)
